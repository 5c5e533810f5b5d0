package load

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// Book records the streams of every phase a run has generated, so that
// each value a GET returns can be traced to the SET that wrote it.
type Book struct {
	W      Workload
	Seed   int64
	phases [][][]Op
}

// NewBook returns an empty record for workload w under seed.
func NewBook(w Workload, seed int64) *Book {
	return &Book{W: w, Seed: seed, phases: [][][]Op{PhasePreload: nil}}
}

// Phase returns the streams of phase p, a pass of n ops, generating and
// recording them on first use. Phases are generated in order and never
// while a pass runs, so the connections' concurrent Check calls only
// read the record.
func (b *Book) Phase(p, n int) [][]Op {
	if p == len(b.phases) {
		b.phases = append(b.phases, b.W.Streams(b.Seed, p, n))
	}
	if p >= len(b.phases) {
		panic(fmt.Sprintf("phase %d generated before phase %d", p, len(b.phases)))
	}
	return b.phases[p]
}

// Check verifies that got is a value some recorded SET wrote to key k,
// byte for byte. Every key is written during set-up, so an absent key is
// an error too. scratch is reused for the expected value.
func (b *Book) Check(k uint32, got, scratch []byte) error {
	if got == nil {
		return fmt.Errorf("key %d: absent, but set-up wrote it", k)
	}
	if len(got) != b.W.ValueSize {
		return fmt.Errorf("key %d: value of %d bytes, want %d", k, len(got), b.W.ValueSize)
	}
	ver := binary.LittleEndian.Uint64(got)
	phase, conn, idx := splitVersion(ver)
	switch {
	case phase == PhasePreload:
		if ver != uint64(k) {
			return fmt.Errorf("key %d: set-up version %d belongs to another key", k, ver)
		}
	case phase >= len(b.phases) || conn >= Conns || idx >= len(b.phases[phase][conn]):
		return fmt.Errorf("key %d: version %#x names no generated op", k, ver)
	default:
		op := b.phases[phase][conn][idx]
		if op.IsGet() || op.Key() != k {
			return fmt.Errorf("key %d: version %#x is not a SET of this key", k, ver)
		}
	}
	if want := AppendValue(scratch[:0], k, ver, len(got)); !bytes.Equal(got, want) {
		return fmt.Errorf("key %d: value differs from the one version %#x wrote", k, ver)
	}
	return nil
}
