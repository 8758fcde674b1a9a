package secmem

import "fmt"

// Checkpoint support: the store keeps a per-block mutation epoch
// (stamped in Write), so a delta checkpoint can carry only the blocks
// touched since the last cut instead of the whole ciphertext image; a
// full checkpoint carries every block (CaptureAll). The epoch clock is
// advanced by Cut and lives entirely in memory, so a freshly restored
// Memory simply starts a new history.

// SlotDelta carries the blocks of one checkpoint: parallel slices
// indexed together, with the ciphertext of block Idx[i] at
// Data[i*BlockB : (i+1)*BlockB].
type SlotDelta struct {
	Idx      []int64
	Versions []uint64
	Written  []bool
	Data     []byte
}

// Cut closes the current mutation epoch and opens the next: it returns
// the epoch just closed, which is the `since` a later CaptureDirty uses
// to collect exactly the blocks written after this point.
func (m *Memory) Cut() uint64 {
	e := m.clock
	m.clock++
	return e
}

// CaptureDirty collects every block stamped after `since` (exclusive),
// in ascending index order. since=0 captures every written block.
func (m *Memory) CaptureDirty(since uint64) *SlotDelta {
	d := &SlotDelta{}
	for idx := int64(0); idx < m.NumBlocks(); idx++ {
		if m.slotEpoch[idx] > since {
			d.Idx = append(d.Idx, idx)
		}
	}
	return m.capture(d)
}

// CaptureAll collects every block, written or not, independent of the
// mutation stamps.
func (m *Memory) CaptureAll() *SlotDelta {
	d := &SlotDelta{Idx: make([]int64, m.NumBlocks())}
	for idx := range d.Idx {
		d.Idx[idx] = int64(idx)
	}
	return m.capture(d)
}

// capture fills the version, written, and ciphertext columns for d.Idx.
func (m *Memory) capture(d *SlotDelta) *SlotDelta {
	d.Versions = make([]uint64, len(d.Idx))
	d.Written = make([]bool, len(d.Idx))
	d.Data = make([]byte, 0, len(d.Idx)*m.blockB)
	for i, idx := range d.Idx {
		d.Versions[i] = m.versions[idx]
		d.Written[i] = m.written[idx]
		d.Data = append(d.Data, m.ciphertext(idx)...)
	}
	return d
}

// ApplySlots installs a captured delta: ciphertext, version, and
// written flag per block, re-authenticating each written off-chip block.
// A checkpoint does not say which blocks hold dummies, so a restored
// dummy is authenticated like real content: it reads as zeros. It
// validates shape and ranges first so a corrupt delta is rejected
// before any state changes.
func (m *Memory) ApplySlots(d *SlotDelta) error {
	if d == nil {
		return fmt.Errorf("secmem: nil slot delta")
	}
	n := len(d.Idx)
	if len(d.Versions) != n || len(d.Written) != n || len(d.Data) != n*m.blockB {
		return fmt.Errorf("secmem: inconsistent slot delta shape (%d idx, %d versions, %d written, %d data bytes)",
			n, len(d.Versions), len(d.Written), len(d.Data))
	}
	for _, idx := range d.Idx {
		if idx < 0 || idx >= m.NumBlocks() {
			return fmt.Errorf("secmem: slot delta block %d out of range", idx)
		}
	}
	for i, idx := range d.Idx {
		copy(m.ciphertext(idx), d.Data[i*m.blockB:(i+1)*m.blockB])
		m.versions[idx] = d.Versions[i]
		m.written[idx] = d.Written[i]
		m.slotEpoch[idx] = m.clock
		if m.written[idx] && m.offChip(idx) {
			if err := m.reauth(idx); err != nil {
				return err
			}
		}
	}
	return nil
}
