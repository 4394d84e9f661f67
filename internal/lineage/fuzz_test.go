package lineage

import (
	"bytes"
	"testing"
)

// decodeRecord must never panic on arbitrary bytes, must reject every
// stale flags byte, and whatever it accepts must re-encode to itself: the
// decoded pair encodes to a canonical value that decodes to the same cells
// and payload and encodes to the same bytes again (the rebuild-determinism
// contract). Byte-exact equality with the input is not asserted —
// binary.Uvarint accepts non-minimal varints and a tile may arrive in a
// form the encoder would not have chosen.
func FuzzDecodeRecord(f *testing.F) {
	for _, val := range staleGoldens {
		f.Add(val)
	}
	dense := make([]uint64, 0, 1500)
	for c := uint64(1000); c < 2500; c++ {
		dense = append(dense, c)
	}
	f.Add(appendRecord(nil, &RegionPair{Out: []uint64{1, 5, 9}, Ins: [][]uint64{{0, 2}, {7}}}))
	f.Add(appendRecord(nil, &RegionPair{Out: []uint64{4}, Payload: []byte{9, 8, 7}}))
	f.Add(appendRecord(nil, &RegionPair{Out: dense, Ins: [][]uint64{{3, 40, 41, 42, 900, 2000, 2002, 2004, 5000, 70000}}}))
	f.Add(appendRecord(nil, &RegionPair{Out: dense, Payload: []byte{}}))
	f.Add([]byte{})
	f.Add([]byte{4, 0x80})

	// asPair materializes a decoded record, or reports false when its
	// cell sets are too large to be worth expanding (a full tile costs
	// one byte per 1024 cells).
	asPair := func(rec *record) (RegionPair, bool) {
		total := rec.outs.size()
		for i := range rec.ins {
			total += rec.ins[i].size()
		}
		if total > 1<<16 {
			return RegionPair{}, false
		}
		rp := RegionPair{Out: rec.outs.cells(nil), Payload: rec.payload}
		if rec.payload == nil {
			rp.Ins = make([][]uint64, len(rec.ins))
			for i := range rec.ins {
				rp.Ins[i] = rec.ins[i].cells(nil)
			}
		}
		return rp, true
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := decodeRecord(data)
		if err != nil {
			return
		}
		if data[0] != recFullContainers && data[0] != recPayloadContainers {
			t.Fatalf("record with flags %d accepted", data[0])
		}
		rp, ok := asPair(rec)
		if !ok {
			return
		}
		enc := appendRecord(nil, &rp)
		rec2, err := decodeRecord(enc)
		if err != nil {
			t.Fatalf("canonical re-encoding rejected: %v", err)
		}
		rp2, _ := asPair(rec2)
		if !equalU64(rp2.Out, rp.Out) || len(rp2.Ins) != len(rp.Ins) || !bytes.Equal(rp2.Payload, rp.Payload) ||
			(rp2.Payload == nil) != (rp.Payload == nil) {
			t.Fatalf("re-decoded record differs: %+v vs %+v", rp2, rp)
		}
		for i := range rp.Ins {
			if !equalU64(rp2.Ins[i], rp.Ins[i]) {
				t.Fatalf("re-decoded input %d differs: %v vs %v", i, rp2.Ins[i], rp.Ins[i])
			}
		}
		if enc2 := appendRecord(nil, &rp2); !bytes.Equal(enc2, enc) {
			t.Fatalf("re-encode is not a fixed point: %v vs %v", enc2, enc)
		}
	})
}

// The block directory parser must never panic, must reject a count over
// 64, a directory cut short, and lengths that run past the value, and every
// block it accepts must re-encode to itself: the records it hands out,
// staged again, encode to the same bytes (the rebuild-determinism
// contract).
func FuzzRecordBlock(f *testing.F) {
	rec := appendRecord(nil, &RegionPair{Out: []uint64{1, 5, 9}, Ins: [][]uint64{{0, 2}, {7}}})
	var full blockStage
	for i := 0; i < blockIDs; i++ {
		full.add(rec)
	}
	good := append([]byte{3, 14, 0, 14}, append(rec, rec...)...)
	f.Add(good)
	f.Add(full.appendTo(nil))
	rejected := map[string][]byte{
		"empty":             {},
		"no ids":            {0},
		"count over 64":     append([]byte{65}, full.appendTo(nil)[1:]...),
		"directory cut":     {3, 14, 0},
		"length past value": append([]byte{1, 15}, rec...),
		"bytes left over":   append(append([]byte{1, 14}, rec...), 0),
		"last id empty":     append([]byte{2, 14, 0}, rec...),
		"non-minimal":       append([]byte{1, 0x8e, 0}, rec...),
	}
	for name, val := range rejected {
		var b recordBlock
		if err := b.parse(val); err == nil {
			f.Fatalf("%s: block %v parsed", name, val)
		}
		f.Add(val)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var b recordBlock
		if err := b.parse(data); err != nil {
			return
		}
		if b.n < 1 || b.n > blockIDs {
			t.Fatalf("block of %d ids accepted", b.n)
		}
		var st blockStage
		for i := 0; i < b.n; i++ {
			st.add(b.record(i))
		}
		if enc := st.appendTo(nil); !bytes.Equal(enc, data) {
			t.Fatalf("block %v re-encodes to %v", data, enc)
		}
	})
}
