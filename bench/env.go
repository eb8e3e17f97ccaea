package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"

	"countrymon/internal/dataset"
	"countrymon/internal/par"
)

// fingerprint identifies the machine and configuration a result set was
// taken on; -agree refuses to compare sets whose fingerprints differ.
type fingerprint struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	Workers    int    `json:"countrymon_workers"`
	ScratchFS  string `json:"scratch_fs"`
	// Traffic states where the load goes: nowhere. Probes cross simnet on a
	// virtual clock and HTTP requests are in-process ServeHTTP calls; only
	// journals and checkpoints reach the scratch filesystem (with fsync).
	Traffic string `json:"traffic"`
}

func takeFingerprint(scratch string) fingerprint {
	return fingerprint{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		Go:         runtime.Version(),
		Workers:    par.Workers(),
		ScratchFS:  fsType(scratch),
		Traffic:    "in-process: simnet virtual clock, ServeHTTP calls; journals fsync to scratch_fs",
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// fsType names the filesystem holding dir, from the longest matching mount
// point in /proc/mounts ("unknown" where that file does not exist).
func fsType(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	f, err := os.Open("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	best, typ := -1, "unknown"
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 3 {
			continue
		}
		mp := fields[1]
		if abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/") {
			if len(mp) > best {
				best, typ = len(mp), fields[2]
			}
		}
	}
	return typ
}

// peakRSSMiB reads VmHWM, the process's resident-set high-water mark.
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	// No procfs: fall back to getrusage (kilobytes on Linux).
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		return float64(ru.Maxrss) / 1024
	}
	return 0
}

// cpuTime is the CPU time this process has consumed so far, all threads,
// user and system, from CLOCK_PROCESS_CPUTIME_ID (nanosecond resolution;
// getrusage where that clock is missing).
//
// The end-to-end time metrics are CPU time, not wall time. On the recording
// machine, a two-vCPU VM, the hypervisor takes the vCPUs away for minutes
// at a stretch: the wall time of an identical pure-CPU loop swings by 40 %
// between quiet and busy phases of the host while its CPU time stays
// within 3 % (README, "Why CPU time"). Wall-clock latency and throughput
// are still measured and reported, as per-layer metrics without a bound.
func cpuTime() time.Duration {
	var ts syscall.Timespec
	const clockProcessCPUTime = 2
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno == 0 {
		return time.Duration(ts.Nano())
	}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return 0
}

// stamp is one instant on both clocks; timing an interval on both.
type stamp struct {
	wall time.Time
	cpu  time.Duration
}

type timing struct{ wall, cpu time.Duration }

func now() stamp { return stamp{time.Now(), cpuTime()} }

func (a stamp) since(b stamp) timing { return timing{a.wall.Sub(b.wall), a.cpu - b.cpu} }

// resetPeakRSS returns freed memory to the OS and restarts the kernel's
// high-water mark (writing 5 to /proc/self/clear_refs), so that the next
// peakRSSMiB reads the peak of what follows only. Where the file cannot be
// written the mark simply keeps covering the whole process.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// memDelta is the allocation cost of a timed region.
type memDelta struct {
	mallocs, bytes uint64
}

func readMem() memDelta {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memDelta{m.Mallocs, m.TotalAlloc}
}

func (a memDelta) since(b memDelta) memDelta {
	return memDelta{a.mallocs - b.mallocs, a.bytes - b.bytes}
}

// heapAllocs is the cumulative count of heap objects allocated. Unlike
// ReadMemStats it does not stop the world, so it can bracket a single scan
// inside a traced round without showing up in the spans around it. Only
// the benchmark's main goroutine calls it.
func heapAllocs() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}

// splitmix is the SplitMix64 finalizer: every seeded choice the benchmark
// makes is a pure hash of (seed, identifiers), so inputs repeat exactly.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func hash2(a, b uint64) uint64    { return splitmix(splitmix(a) ^ b) }
func hash3(a, b, c uint64) uint64 { return splitmix(hash2(a, b) ^ splitmix(c)) }

// rng is a tiny seeded generator for request sequences.
type rng struct{ s uint64 }

func (r *rng) next() uint64 { r.s = splitmix(r.s); return r.s }
func (r *rng) intn(n int) int {
	return int(r.next() % uint64(n))
}

// storeHash is the identity of a dataset store: the hash of its serialized
// form. Stepped, untraced and resumed stores must agree on it.
func storeHash(s *dataset.Store) (string, error) {
	h := sha256.New()
	if _, err := s.WriteTo(h); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// contentHash is the identity of what a store holds, independent of the
// file format: every round's flags and coverage and every cell's count and
// routedness. The golden hashes in testdata are content hashes, so a later
// change to the encoding does not invalidate them.
func contentHash(s *dataset.Store) string {
	h := sha256.New()
	rounds, blocks := s.Timeline().NumRounds(), s.NumBlocks()
	row, routed := make([]byte, blocks), make([]byte, blocks)
	for r := 0; r < rounds; r++ {
		var flags byte
		if s.Missing(r) {
			flags |= 1
		}
		if s.Done(r) {
			flags |= 2
		}
		h.Write([]byte{flags, byte(s.Coverage(r) * 255)})
		for bi := 0; bi < blocks; bi++ {
			row[bi], routed[bi] = byte(s.Resp(bi, r)), 0
			if s.Routed(bi, r) {
				routed[bi] = 1
			}
		}
		h.Write(row)
		h.Write(routed)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// writeFile writes an input file the program reads back (a scenario).
func writeFile(path string, data []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func fileSize(path string) int64 {
	st, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return st.Size()
}
