// Package memop defines the memory-operation batches ORAM protocols emit.
// Each protocol operation (a Path ORAM path access, a Ring ORAM ReadPath,
// EvictPath, or EarlyReshuffle, ...) is described as a sequence of Ops, and
// the timing layer (internal/sim) prices them against the DRAM model. This
// keeps the protocol engines free of timing concerns while still exposing
// the exact physical addresses each operation touches — which is what the
// paper's bandwidth and row-buffer-locality results depend on.
package memop

// Kind labels a protocol operation for the per-operation-type execution
// breakdown (Fig 8c).
type Kind uint8

const (
	// KindReadPath is an online access servicing a user request.
	KindReadPath Kind = iota
	// KindEvictPath is the periodic background path reshuffle.
	KindEvictPath
	// KindEarlyReshuffle is a single-bucket reshuffle after S touches.
	KindEarlyReshuffle
	// KindBackground is a dummy access inserted to deplete the stash.
	KindBackground
	// KindPathAccess is a full Path ORAM read+write path access.
	KindPathAccess

	// NumKinds is the number of kinds, for arrays indexed by Kind.
	NumKinds int = iota
)

// String returns the kind's display name.
func (k Kind) String() string {
	switch k {
	case KindReadPath:
		return "readPath"
	case KindEvictPath:
		return "evictPath"
	case KindEarlyReshuffle:
		return "earlyReshuffle"
	case KindBackground:
		return "background"
	case KindPathAccess:
		return "pathAccess"
	default:
		return "unknown"
	}
}

// Kinds lists all operation kinds in display order.
func Kinds() []Kind {
	return []Kind{KindReadPath, KindEvictPath, KindEarlyReshuffle, KindBackground, KindPathAccess}
}

// Op is one batch of memory traffic: reads that gate the operation's
// completion and writes that are posted to the memory controller.
type Op struct {
	Kind   Kind
	Reads  []uint64 // physical byte addresses read
	Writes []uint64 // physical byte addresses written
}

// Blocks returns the total number of block transfers in the op.
func (o Op) Blocks() int { return len(o.Reads) + len(o.Writes) }
