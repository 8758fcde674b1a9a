package sim

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/ringoram"
)

// cacheEntry is one run-cache slot. sync.Once gives single-flight
// semantics: the first job with a key computes while concurrent
// duplicates block on the Once and then read the stored result. Each
// holds a worker slot while it waits; the computing job needs no other.
type cacheEntry struct {
	once sync.Once
	res  Result
	err  error
}

// CacheKeyer is implemented by remote allocators whose behaviour is fully
// described by their construction parameters (core.DeadQ and
// core.SharedDeadQ). Allocators without it are fingerprinted by pointer,
// which makes their jobs unique and therefore never cache-shared — the
// safe default for stateful components the cache cannot see into.
type CacheKeyer interface {
	CacheKey() string
}

// jobKey fingerprints everything that determines a job's Result: the
// measurement window, the benchmark, the trace seed, the memory and CPU
// models, and the full ORAM configuration. Two jobs with equal keys are
// interchangeable, which is what lets `-exp all` reuse one experiment's
// runs in another.
func jobKey(p Params, j Job) string {
	var b strings.Builder
	fmt.Fprintf(&b, "w%d m%d|bench %s/%s gen%d|dram %+v|cpu %+v|",
		p.Warmup, p.Measure, j.Bench.Suite, j.Bench.Name, j.GenSeed, p.DRAM, p.CPU)
	writeConfigKey(&b, j.Config)
	return b.String()
}

// writeConfigKey writes a canonical fingerprint of a ringoram.Config:
// scalar fields in a fixed order, per-level maps with sorted keys, and
// the allocator/data plane via CacheKeyer or pointer identity.
func writeConfigKey(b *strings.Builder, cfg ringoram.Config) {
	fmt.Fprintf(b, "L%d z'%d s%d a%d y%d n%d blk%d stash%d bg%d top%d r%d life%v xor%v seed%d",
		cfg.Levels, cfg.ZPrime, cfg.S, cfg.A, cfg.Y, cfg.NumBlocks, cfg.BlockB,
		cfg.StashCapacity, cfg.BGEvictThreshold, cfg.TreetopLevels, cfg.MaxRemote,
		cfg.TrackLifetimes, cfg.XORRead, cfg.Seed)
	writeLevelMap(b, "z'", cfg.ZPrimePerLevel)
	writeLevelMap(b, "s", cfg.SPerLevel)
	writeLevelMap(b, "st", cfg.STargetPerLevel)
	switch a := cfg.Allocator.(type) {
	case nil:
		b.WriteString("|alloc none")
	case CacheKeyer:
		fmt.Fprintf(b, "|alloc %s", a.CacheKey())
	default:
		fmt.Fprintf(b, "|alloc %p", a)
	}
	if cfg.Data != nil {
		fmt.Fprintf(b, "|data %p", cfg.Data)
	}
}

func writeLevelMap(b *strings.Builder, tag string, m map[int]int) {
	if len(m) == 0 {
		return
	}
	levels := make([]int, 0, len(m))
	for l := range m {
		levels = append(levels, l)
	}
	sort.Ints(levels)
	fmt.Fprintf(b, "|%s{", tag)
	for i, l := range levels {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(b, "%d:%d", l, m[l])
	}
	b.WriteByte('}')
}
