package netmodel

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// refEntry and refIndex are the map the block table replaced, built the way
// BuildSpace built it, kept as the oracle the table is held to.
type refEntry struct {
	origin ASN
	index  int32
}

func refIndex(ases []*AS) (map[BlockID]refEntry, error) {
	byBlock := make(map[BlockID]refEntry)
	var blocks []BlockID
	for _, as := range ases {
		for _, b := range as.Blocks() {
			if e, taken := byBlock[b]; taken {
				return nil, fmt.Errorf("netmodel: block %v claimed by both %v and %v", b, e.origin, as.ASN)
			}
			byBlock[b] = refEntry{origin: as.ASN}
			blocks = append(blocks, b)
		}
	}
	sort.Slice(blocks, func(i, j int) bool { return blocks[i] < blocks[j] })
	for i, b := range blocks {
		byBlock[b] = refEntry{origin: byBlock[b].origin, index: int32(i)}
	}
	return byBlock, nil
}

func refBlockIndex(m map[BlockID]refEntry, b BlockID) int {
	if e, ok := m[b]; ok {
		return int(e.index)
	}
	return -1
}

// asesOver deals the blocks out to ASes in runs of random length, one /24
// prefix per block, in the (shuffled) order given: input order, AS order and
// address order all differ.
func asesOver(r *rand.Rand, blocks []BlockID) []*AS {
	var ases []*AS
	for i := 0; i < len(blocks); {
		n := 1 + r.Intn(1+len(blocks)/7)
		as := &AS{ASN: ASN(64512 + len(ases))}
		for ; n > 0 && i < len(blocks); n, i = n-1, i+1 {
			as.Prefixes = append(as.Prefixes, Prefix{Base: blocks[i].First(), Bits: 24})
		}
		ases = append(ases, as)
	}
	return ases
}

// randomBlocks draws n distinct blocks, always including the two ends of the
// address range once there is room for them.
func randomBlocks(r *rand.Rand, n int) []BlockID {
	seen := map[BlockID]bool{}
	var out []BlockID
	add := func(b BlockID) {
		if !seen[b] && len(out) < n {
			seen[b] = true
			out = append(out, b)
		}
	}
	add(0)
	add(1<<24 - 1)
	for len(out) < n {
		if b := BlockID(r.Intn(1 << 24)); r.Intn(4) > 0 || len(out) == 0 {
			add(b)
		} else { // a neighbour of a block already in: clustered keys
			add((out[r.Intn(len(out))] + 1) & (1<<24 - 1))
		}
	}
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// collidingBlocks returns n blocks that all hash to one slot of the table a
// set of n gets, so every one of them but the first is found by probing.
func collidingBlocks(n int) []BlockID {
	shift := newBlockTable(n).shift
	var out []BlockID
	for b := BlockID(0); len(out) < n; b++ {
		if uint32(b)*0x9e3779b1>>shift == 3 {
			out = append(out, b)
		}
	}
	return out
}

// checkSpaceAgainstMap holds every lookup of a Space over blocks to the map:
// each member, then 10 000 non-members, the members' neighbours first.
func checkSpaceAgainstMap(t *testing.T, r *rand.Rand, blocks []BlockID) {
	t.Helper()
	ases := asesOver(r, blocks)
	s, err := BuildSpace(ases)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := refIndex(ases)
	if err != nil {
		t.Fatal(err)
	}
	sorted := s.Blocks()
	if len(sorted) != len(blocks) || len(ref) != len(blocks) {
		t.Fatalf("%d blocks in, %d in the space, %d in the map", len(blocks), len(sorted), len(ref))
	}
	if n := len(s.table.slots); n < 2*len(blocks) || n >= 4*len(blocks) || n&(n-1) != 0 {
		t.Fatalf("%d slots for %d blocks: want a power of two in [2n, 4n)", len(s.table.slots), len(blocks))
	}
	direct := IndexBlocks(sorted)
	check := func(b BlockID) {
		e := ref[b]
		if got, want := s.BlockIndex(b), refBlockIndex(ref, b); got != want {
			t.Fatalf("BlockIndex(%v) = %d, map says %d", b, got, want)
		} else if want >= 0 && sorted[want] != b {
			t.Fatalf("BlockIndex(%v) = %d, but Blocks()[%d] = %v", b, got, want, sorted[want])
		} else if d := direct.Index(b); d != want {
			t.Fatalf("IndexBlocks(...).Index(%v) = %d, map says %d", b, d, want)
		}
		if got := s.OriginOf(b); got != e.origin {
			t.Fatalf("OriginOf(%v) = %v, map says %v", b, got, e.origin)
		}
		if b < 1<<24 { // a block some address is in
			_, member := ref[b]
			if got := s.BlockIndex(b.Addr(uint8(r.Intn(256))).Block()) >= 0; got != member {
				t.Fatalf("address lookup in %v = %v, map says %v", b, got, member)
			}
		}
	}
	for _, b := range blocks {
		check(b)
	}
	misses := 0
	miss := func(b BlockID) {
		if _, member := ref[b]; !member && misses < 10000 {
			misses++
			check(b)
		}
	}
	for _, b := range blocks {
		miss(b - 1) // 0xffffffff below block 0: no address is in it, and it must not alias a slot
		miss(b + 1)
	}
	for misses < 10000 {
		miss(BlockID(r.Intn(1 << 24)))
	}
}

func TestBlockTableMatchesMap(t *testing.T) {
	dense := make([]BlockID, 256) // a /16, de-aggregated
	for i := range dense {
		dense[i] = MustParseBlock("10.16.0.0/24") + BlockID(i)
	}
	full := make([]BlockID, 1024) // 2 048 slots, exactly half of them taken
	for i := range full {
		full[i] = BlockID(i * 4099)
	}
	fixed := map[string][]BlockID{
		"one block":       {MustParseBlock("91.198.4.0/24")},
		"block 0":         {0},
		"both ends":       {0, 1<<24 - 1},
		"dense /16":       dense,
		"one slot":        collidingBlocks(50),
		"one slot, large": collidingBlocks(700),
		"at the limit":    full,
	}
	for name, blocks := range fixed {
		t.Run(name, func(t *testing.T) { checkSpaceAgainstMap(t, rand.New(rand.NewSource(1)), blocks) })
	}
	for _, n := range []int{1, 2, 3, 4, 5, 31, 32, 33, 96, 933, 4096, 40000} {
		t.Run(fmt.Sprint(n, " random"), func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(n)))
			checkSpaceAgainstMap(t, r, randomBlocks(r, n))
		})
	}
}

// TestReindexMatchesIndexBlocks reindexes one table over lists that grow,
// shrink to a smaller slot count, keep their slot count and grow back: each
// time it must hold the slots IndexBlocks builds, and it must keep its slots
// whenever their capacity suffices.
func TestReindexMatchesIndexBlocks(t *testing.T) {
	r := rand.New(rand.NewSource(24))
	var tab BlockTable
	widest := 0
	for _, n := range []int{5, 933, 31, 40, 1, 933, 934, 4096, 2} {
		blocks := randomBlocks(r, n)
		before := tab.slots[:cap(tab.slots)]
		tab.Reindex(blocks)
		fresh := IndexBlocks(blocks)
		if tab.shift != fresh.shift || len(tab.slots) != len(fresh.slots) {
			t.Fatalf("%d blocks: %d slots, shift %d; IndexBlocks builds %d, shift %d",
				n, len(tab.slots), tab.shift, len(fresh.slots), fresh.shift)
		}
		for i := range fresh.slots {
			if tab.slots[i] != fresh.slots[i] {
				t.Fatalf("%d blocks: slot %d is %+v, IndexBlocks builds %+v", n, i, tab.slots[i], fresh.slots[i])
			}
		}
		if reused := len(before) > 0 && &tab.slots[:1][0] == &before[0]; reused != (len(fresh.slots) <= widest) {
			t.Fatalf("%d blocks (%d slots) after a table of %d slots: slots reused = %v", n, len(fresh.slots), widest, reused)
		}
		widest = max(widest, len(fresh.slots))
	}
}

// A block claimed twice is refused with the error the map-backed build gave,
// naming the block, its first claimant and the second — whichever of several
// doubly-claimed blocks the ASes' own order reaches first.
func TestBuildSpaceRejectsSecondClaimLikeMap(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	refused := 0
	for trial := 0; trial < 200; trial++ {
		blocks := randomBlocks(r, 2+r.Intn(60))
		ases := asesOver(r, blocks)
		for k := 1 + r.Intn(3); k > 0; k-- { // one to three second claims
			as := ases[r.Intn(len(ases))]
			as.Prefixes = append(as.Prefixes, Prefix{Base: blocks[r.Intn(len(blocks))].First(), Bits: 24})
		}
		_, want := refIndex(ases)
		_, got := BuildSpace(ases)
		if (got == nil) != (want == nil) || got != nil && got.Error() != want.Error() {
			t.Fatalf("trial %d: BuildSpace error %v, the map-backed build's %v", trial, got, want)
		}
		if got != nil {
			refused++
		}
	}
	if refused < 100 { // a second claim by the block's own AS is no conflict
		t.Fatalf("only %d of 200 trials had a conflict to refuse", refused)
	}
}

// A Space is filled before BuildSpace returns it and never written after, so
// readers need no lock; -race holds it to that.
func TestSpaceConcurrentReaders(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	blocks := randomBlocks(r, 2000)
	s := MustBuildSpace(asesOver(r, blocks))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i, b := range blocks {
				if s.BlockIndex(b) < 0 || s.OriginOf(b) == 0 || s.BlockIndex(b.Addr(uint8(i)).Block()) < 0 {
					t.Errorf("reader %d: member %v not found", g, b)
					return
				}
				if miss := BlockID(1<<24 + i + g); s.BlockIndex(miss) >= 0 || s.OriginOf(miss) != 0 {
					t.Errorf("reader %d: non-member %v found", g, miss)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// BenchmarkSpaceBlockIndex is the lookup sim's responder and ProbeFunc make
// once per probe, on a space the size of campaign_chaos's (96 blocks), asked
// for its members in a scattered order with one miss in eight.
func BenchmarkSpaceBlockIndex(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	blocks := randomBlocks(r, 96)
	s := MustBuildSpace(asesOver(r, blocks))
	queries := make([]BlockID, 1024)
	for i := range queries {
		queries[i] = blocks[r.Intn(len(blocks))]
		if i%8 == 7 {
			queries[i]++
		}
	}
	b.ResetTimer()
	sum := 0
	for i := 0; i < b.N; i++ {
		sum += s.BlockIndex(queries[i%len(queries)])
	}
	benchSink = sum
}

var benchSink int
