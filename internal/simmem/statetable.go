package simmem

import (
	"encoding/binary"
	"fmt"
)

// StateTable manages a region of flow records that persist across packet
// boundaries — the first structure in this simulator whose corruption a
// packet-boundary rollback cannot undo. Each record carries recWords
// payload words followed by one checksum word, written through the
// charged Memory interface so integrity costs real cycles. The table
// additionally keeps a golden shadow copy in host memory, updated with
// the *intended* value of every store (the argument, not a re-read of
// possibly-corrupt simulated memory): the shadow is the oracle the
// ECC/parity recovery paths already imply, and it is what the recovery
// ladder rebuilds from.
//
// Shadow state follows the same packet-boundary transaction discipline
// as the simulated space: CommitShadow pins the mutations of a completed
// packet, RestoreShadow rolls an aborted packet's shadow writes back, so
// shadow and simulated memory revert together when containment drops a
// packet.
//
//lint:checkpoint CommitShadow, RestoreShadow
type StateTable struct {
	//lint:ephemeral layout constant fixed at construction
	base Addr
	//lint:ephemeral layout constant fixed at construction
	records int

	recWords int

	shadow    []uint32 // live golden payload words, records x recWords
	sums      []uint32 // live golden checksum per record
	committed []uint32 // shadow at the last packet boundary
	commSums  []uint32 // sums at the last packet boundary

	dirty   []int32 // record indices touched since the last commit
	isDirty []bool

	//lint:ephemeral read scratch, valid only until the next Lookup
	scratch []uint32

	// OnCorrupt is invoked with the record index when a verified read
	// finds a checksum mismatch. The processor installs the recovery
	// ladder here (evict, rebuild from shadow, or declare the run
	// unrecoverable); after a nil return the record is re-read. With no
	// handler installed a mismatch is an unprotected-corruption error.
	//
	//lint:ephemeral policy hook installed once per run, before any packet
	OnCorrupt func(idx int) error
}

// stateTableIsolation is the alignment and padding granule of the table's
// allocation: at least the largest cache line in the hierarchy (the 128-byte
// L2 line), so no cache line ever spans the table boundary. Packet buffers
// are rewritten by plain (non-write-back) DMA every packet; a line shared
// between the table's edge and a neighbouring allocation would let that
// DMA's invalidation discard unwritten flow-record stores.
const stateTableIsolation = 128

// NewStateTable allocates a table of records x (recWords+1) words in the
// space, isolated to whole cache lines. Records start unsealed; call Init
// through the charged memory before first use.
func NewStateTable(space *Space, records, recWords int) (*StateTable, error) {
	if records <= 0 || recWords <= 0 {
		return nil, fmt.Errorf("simmem: state table needs positive geometry (records %d, words %d)", records, recWords)
	}
	size := (records*(recWords+1)*4 + stateTableIsolation - 1) &^ (stateTableIsolation - 1)
	base, err := space.Alloc(size, stateTableIsolation)
	if err != nil {
		return nil, err
	}
	return &StateTable{
		base:      base,
		records:   records,
		recWords:  recWords,
		shadow:    make([]uint32, records*recWords),
		sums:      make([]uint32, records),
		committed: make([]uint32, records*recWords),
		commSums:  make([]uint32, records),
		dirty:     make([]int32, 0, records),
		isDirty:   make([]bool, records),
		scratch:   make([]uint32, recWords),
	}, nil
}

// Records returns the record count.
func (t *StateTable) Records() int { return t.records }

// RecWords returns the payload words per record (the checksum word is
// managed by the table, not the application).
func (t *StateTable) RecWords() int { return t.recWords }

// RecordBytes returns the byte footprint of one record including its
// checksum word.
func (t *StateTable) RecordBytes() int { return (t.recWords + 1) * 4 }

// RecordAddr returns the simulated address of record idx.
func (t *StateTable) RecordAddr(idx int) Addr {
	return t.base + Addr(idx*t.RecordBytes())
}

// FieldAddr returns the simulated address of payload word `word` of
// record idx.
func (t *StateTable) FieldAddr(idx, word int) Addr {
	return t.RecordAddr(idx) + Addr(word*4)
}

func (t *StateTable) sumAddr(idx int) Addr {
	return t.RecordAddr(idx) + Addr(t.recWords*4)
}

// SumAddr returns the simulated address of record idx's checksum word —
// exported for the end-of-run divergence audit, which reads stored bytes
// outside the charged path.
func (t *StateTable) SumAddr(idx int) Addr { return t.sumAddr(idx) }

// stateSum mixes the payload words with the record index so a record
// copied wholesale into the wrong slot still fails verification.
func stateSum(words []uint32, idx int) uint32 {
	h := uint32(0x811c9dc5) ^ uint32(idx)*0x9e3779b9
	for _, w := range words {
		h = (h ^ w) * 0x01000193
		h ^= h >> 17
	}
	return h
}

// SumOf computes the record checksum of the given payload words at index
// idx — exported for the end-of-run divergence audit, which reads stored
// bytes outside the charged path.
func (t *StateTable) SumOf(words []uint32, idx int) uint32 {
	return stateSum(words, idx)
}

// markDirty notes a shadow mutation of record idx for the next
// commit/restore.
//
//lint:hot-path
func (t *StateTable) markDirty(idx int) {
	if !t.isDirty[idx] {
		t.isDirty[idx] = true
		t.dirty = append(t.dirty, int32(idx)) //lint:alloc-ok capacity reaches steady state once every record has been touched; commit/restore reuse it
	}
}

// Init zeroes and seals every record through mem: after Init each record
// is a valid empty entry whose stored checksum verifies. Setup-time
// control-plane work, charged like any other table initialisation.
func (t *StateTable) Init(mem Memory) error {
	for idx := 0; idx < t.records; idx++ {
		for w := 0; w < t.recWords; w++ {
			if err := mem.Store32(t.FieldAddr(idx, w), 0); err != nil {
				return err
			}
		}
		sum := stateSum(t.shadow[idx*t.recWords:(idx+1)*t.recWords], idx)
		if err := mem.Store32(t.sumAddr(idx), sum); err != nil {
			return err
		}
		t.sums[idx] = sum
		t.commSums[idx] = sum
	}
	return nil
}

// StoreField writes one payload word of record idx through mem and
// records the intended value in the golden shadow. Callers must Seal the
// record after the last StoreField of an update, and must only update
// records they verified with Lookup in the same packet.
//
//lint:hot-path
func (t *StateTable) StoreField(mem Memory, idx, word int, v uint32) error {
	if err := mem.Store32(t.FieldAddr(idx, word), v); err != nil {
		return err
	}
	t.markDirty(idx)
	t.shadow[idx*t.recWords+word] = v
	return nil
}

// Seal recomputes the record checksum from the golden shadow and stores
// it through mem, closing an update transaction.
//
//lint:hot-path
func (t *StateTable) Seal(mem Memory, idx int) error {
	sum := stateSum(t.shadow[idx*t.recWords:(idx+1)*t.recWords], idx)
	t.markDirty(idx)
	t.sums[idx] = sum
	return mem.Store32(t.sumAddr(idx), sum)
}

// Lookup is a verified read of record idx: every payload word and the
// stored checksum are loaded through mem (charged, faultable), the
// checksum is recomputed, and on mismatch the OnCorrupt ladder runs and
// the record is re-read. The returned slice is the table's scratch
// buffer, valid until the next Lookup.
//
//lint:hot-path
func (t *StateTable) Lookup(mem Memory, idx int) ([]uint32, error) {
	for {
		for w := 0; w < t.recWords; w++ {
			v, err := mem.Load32(t.FieldAddr(idx, w))
			if err != nil {
				return nil, err
			}
			t.scratch[w] = v
		}
		stored, err := mem.Load32(t.sumAddr(idx))
		if err != nil {
			return nil, err
		}
		if stateSum(t.scratch, idx) == stored {
			return t.scratch, nil
		}
		if t.OnCorrupt == nil {
			return nil, &AccessError{Op: "state-lookup", Addr: t.RecordAddr(idx), Reason: "unprotected flow-record corruption"} //lint:alloc-ok fatal-error construction, run is over
		}
		if err := t.OnCorrupt(idx); err != nil {
			return nil, err
		}
	}
}

// ZeroShadow clears the golden shadow of record idx — the shadow half of
// an eviction (the simulated bytes are rewritten by the recovery ladder
// through the DMA engine).
func (t *StateTable) ZeroShadow(idx int) {
	for w := 0; w < t.recWords; w++ {
		t.shadow[idx*t.recWords+w] = 0
	}
	t.markDirty(idx)
	t.sums[idx] = stateSum(t.shadow[idx*t.recWords:(idx+1)*t.recWords], idx)
}

// EncodeShadow serialises the golden record idx — payload words then
// checksum, little-endian — into buf, which must hold RecordBytes. This
// is the image the recovery ladder DMA-writes to rebuild a record.
func (t *StateTable) EncodeShadow(idx int, buf []byte) {
	if len(buf) < t.RecordBytes() {
		panic("simmem: EncodeShadow buffer too small")
	}
	for w := 0; w < t.recWords; w++ {
		binary.LittleEndian.PutUint32(buf[w*4:], t.shadow[idx*t.recWords+w])
	}
	binary.LittleEndian.PutUint32(buf[t.recWords*4:], t.sums[idx])
}

// ShadowWord returns the golden value of payload word `word` of record
// idx (host-side, uncharged — audit and test use only).
func (t *StateTable) ShadowWord(idx, word int) uint32 {
	return t.shadow[idx*t.recWords+word]
}

// ShadowSum returns the golden checksum of record idx.
func (t *StateTable) ShadowSum(idx int) uint32 { return t.sums[idx] }

// CommitShadow pins the shadow mutations of a completed packet, making
// them the rollback target of the next restore.
//
//lint:hot-path
func (t *StateTable) CommitShadow() {
	for _, idx := range t.dirty {
		i := int(idx)
		copy(t.committed[i*t.recWords:(i+1)*t.recWords], t.shadow[i*t.recWords:(i+1)*t.recWords])
		t.commSums[i] = t.sums[i]
		t.isDirty[i] = false
	}
	t.dirty = t.dirty[:0]
}

// RestoreShadow rolls the shadow back to the last commit, discarding the
// aborted packet's intended writes alongside the checkpoint's memory
// restore.
//
//lint:hot-path
func (t *StateTable) RestoreShadow() {
	for _, idx := range t.dirty {
		i := int(idx)
		copy(t.shadow[i*t.recWords:(i+1)*t.recWords], t.committed[i*t.recWords:(i+1)*t.recWords])
		t.sums[i] = t.commSums[i]
		t.isDirty[i] = false
	}
	t.dirty = t.dirty[:0]
}
