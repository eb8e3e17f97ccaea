package serve

import (
	"strconv"
	"strings"
	"sync"
	"testing"
)

// request is serveResource's get-or-render on c alone: a hit, or a miss that
// puts a fresh entry for key rendered at epoch.
func request(c *respCache, key string, epoch uint64, immutable bool) (*cacheEntry, bool) {
	if e := c.get(key, epoch); e != nil {
		return e, true
	}
	e := newEntry([]byte(key), key, immutable, epoch)
	c.put(e)
	return e, false
}

// checkBounds holds c to its layout: every key in one of the two queues and
// in the map, small and main within their sizes, cacheCap entries at most.
func checkBounds(t *testing.T, c *respCache) {
	t.Helper()
	if n := len(c.small.keys) + len(c.main.keys); n != len(c.entries) || len(c.small.keys) > smallCap ||
		len(c.main.keys) > cacheCap-smallCap || len(c.entries) > cacheCap {
		t.Fatalf("%d entries, %d keys in small, %d in main", len(c.entries), len(c.small.keys), len(c.main.keys))
	}
}

// TestCacheKeepsRepeatedKeysUnderScan: 64 keys readers repeat, interleaved
// with five cache capacities of one-off keys, stay hits from their second
// request on, and the one-off keys hold no more than the probation queue at
// the end. While the cache evicted in insertion order, the one-off keys
// pushed every repeated key out each cacheCap inserts.
func TestCacheKeepsRepeatedKeysUnderScan(t *testing.T) {
	c := newRespCache()
	const repeated = 64
	var seen [repeated]int
	for i := range 5 * cacheCap {
		request(c, "once="+strconv.Itoa(i), 1, true)
		k := i % repeated
		_, hit := request(c, "repeat="+strconv.Itoa(k), 1, true)
		if seen[k]++; seen[k] >= 2 && !hit {
			t.Fatalf("request %d of repeated key %d (after %d one-off keys) missed", seen[k], k, i+1)
		}
	}
	oneOff := 0
	for key := range c.entries {
		if strings.HasPrefix(key, "once=") {
			oneOff++
		}
	}
	if oneOff > cacheCap/10 {
		t.Errorf("%d one-off entries resident, want at most %d", oneOff, cacheCap/10)
	}
	checkBounds(t, c)
}

// TestCacheDropsStaleMutable: a mutable entry hit in its epoch is dropped,
// not promoted, when it leaves the probation queue after a newer epoch's
// put, so a stale body never takes a place in the main queue; a mutable
// entry of the newest epoch and an immutable one, both hit, are promoted and
// outlast a scan of one-off keys.
func TestCacheDropsStaleMutable(t *testing.T) {
	c := newRespCache()
	request(c, "stale", 1, false)
	request(c, "sealed", 1, true)
	request(c, "fresh", 2, false)
	for _, q := range []struct {
		key   string
		epoch uint64
	}{{"stale", 1}, {"sealed", 2}, {"fresh", 2}} {
		if _, hit := request(c, q.key, q.epoch, false); !hit {
			t.Fatalf("second request of %s missed", q.key)
		}
	}
	for i := range 2 * smallCap {
		request(c, "once="+strconv.Itoa(i), 2, true)
	}
	if c.entries["stale"] != nil {
		t.Error("a stale mutable entry was promoted to the main queue")
	}
	for _, key := range []string{"sealed", "fresh"} {
		if c.entries[key] == nil {
			t.Errorf("%s, hit in probation and still servable, was dropped", key)
		}
	}
	checkBounds(t, c)
}

// TestCacheConcurrentReaders runs readers marking hot entries referenced
// while a writer scans one-off keys through the queues and re-renders the
// hot keys at a new epoch: under -race this is the check that the referenced
// bit is the only entry field a hit writes.
func TestCacheConcurrentReaders(t *testing.T) {
	c := newRespCache()
	const hot = 32
	for k := range hot {
		request(c, "hot="+strconv.Itoa(k), 1, k%2 == 0)
	}
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 4000 {
				key := "hot=" + strconv.Itoa((g+i)%hot)
				if e := c.get(key, 1); e != nil && (e.key != key || (!e.immutable && e.epoch != 1)) {
					t.Errorf("get(%s) returned the entry of %s at epoch %d", key, e.key, e.epoch)
					return
				}
			}
		}()
	}
	for i := range 2 * cacheCap {
		request(c, "once="+strconv.Itoa(i), 1, true)
		if i%512 == 0 {
			request(c, "hot="+strconv.Itoa(i/512%hot), 2, false)
		}
	}
	wg.Wait()
	checkBounds(t, c)
}

// FuzzRespCacheMatchesModel drives the cache with random requests over 16
// repeated keys, bursts of one-off keys and two epochs, against a map of the
// last entry put for each key. A hit returns that entry, never a mutable one
// of another epoch; a key's request right after its put is a hit; the cache
// never holds more than cacheCap entries.
func FuzzRespCacheMatchesModel(f *testing.F) {
	f.Add([]byte{0x00, 0x10, 0x00, 0xff, 0x00, 0x20, 0x21, 0xc0})
	f.Add([]byte{0x01, 0x01, 0x51, 0xd0, 0x41, 0x01, 0xfe, 0x91, 0x11})
	f.Fuzz(func(t *testing.T, ops []byte) {
		c := newRespCache()
		last := make(map[string]*cacheEntry)
		once := 0
		get := func(key string, epoch uint64, immutable bool) {
			e, hit := request(c, key, epoch, immutable)
			if hit && (e != last[key] || (!e.immutable && e.epoch != epoch)) {
				t.Fatalf("get(%s, %d) = entry of epoch %d, immutable %v: not the last one put, or stale", key, epoch, e.epoch, e.immutable)
			}
			if !hit {
				last[key] = e
				if again, _ := request(c, key, epoch, immutable); again != e {
					t.Fatalf("the request of %s right after its put missed", key)
				}
			}
		}
		for _, op := range ops {
			epoch := uint64(1 + op>>5&1)
			switch op >> 6 {
			case 0, 1, 2: // a repeated key; bit 4 is whether its body is immutable
				get("r="+strconv.Itoa(int(op&15)), epoch, op&16 != 0)
			case 3: // a burst of one-off keys
				for range (int(op&31) + 1) * 64 {
					once++
					get("once="+strconv.Itoa(once), epoch, op&1 != 0)
				}
			}
			checkBounds(t, c)
		}
	})
}
