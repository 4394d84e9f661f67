package lineage

import (
	"bytes"
	"testing"

	"subzero/internal/grid"
)

func TestRegionPairNormalizeValidate(t *testing.T) {
	outSp := grid.NewSpace(grid.Shape{4, 4})
	inSp := []*grid.Space{grid.NewSpace(grid.Shape{4, 4}), grid.NewSpace(grid.Shape{2, 2})}

	rp := RegionPair{
		Out: []uint64{5, 1, 5},
		Ins: [][]uint64{{3, 3, 0}, {2}},
	}
	rp.Normalize()
	if len(rp.Out) != 2 || rp.Out[0] != 1 || rp.Out[1] != 5 {
		t.Fatalf("normalize out=%v", rp.Out)
	}
	if err := rp.Validate(outSp, inSp); err != nil {
		t.Fatal(err)
	}
	out, in := rp.CellCount()
	if out != 2 || in != 3 {
		t.Fatalf("CellCount=(%d,%d)", out, in)
	}
}

func TestRegionPairValidateErrors(t *testing.T) {
	outSp := grid.NewSpace(grid.Shape{4})
	inSp := []*grid.Space{grid.NewSpace(grid.Shape{4})}

	cases := []RegionPair{
		{Out: nil, Ins: [][]uint64{{0}}},                             // empty out
		{Out: []uint64{9}, Ins: [][]uint64{{0}}},                     // out of range
		{Out: []uint64{0}, Ins: [][]uint64{{9}}},                     // input out of range
		{Out: []uint64{0}, Ins: [][]uint64{{0}, {1}}},                // wrong input count
		{Out: []uint64{2, 1}, Ins: [][]uint64{{0}}},                  // unsorted
		{Out: []uint64{0}, Ins: [][]uint64{{0}}, Payload: []byte{1}}, // both kinds
	}
	for i, rp := range cases {
		if err := rp.Validate(outSp, inSp); err == nil {
			t.Fatalf("case %d validated: %+v", i, rp)
		}
	}
	// Payload pair with no Ins is fine.
	pp := RegionPair{Out: []uint64{1}, Payload: []byte{42}}
	if err := pp.Validate(outSp, inSp); err != nil {
		t.Fatal(err)
	}
	if !pp.IsPayload() {
		t.Fatal("IsPayload wrong")
	}
}

func TestRecordCodecRoundTrip(t *testing.T) {
	full := RegionPair{Out: []uint64{1, 5, 9}, Ins: [][]uint64{{0, 2}, {7}}}
	rec, err := decodeRecord(encodeRecord(&full))
	if err != nil {
		t.Fatal(err)
	}
	if got := rec.outs.cells(nil); !equalU64(got, full.Out) {
		t.Fatalf("full record outs: %v", got)
	}
	if len(rec.ins) != 2 || !equalU64(rec.ins[0].cells(nil), full.Ins[0]) || !equalU64(rec.ins[1].cells(nil), full.Ins[1]) {
		t.Fatalf("full record ins round trip: %+v", rec)
	}
	if rec.payload != nil {
		t.Fatal("full record has payload")
	}

	pay := RegionPair{Out: []uint64{4}, Payload: []byte{9, 8, 7}}
	rec, err = decodeRecord(encodeRecord(&pay))
	if err != nil {
		t.Fatal(err)
	}
	if rec.ins != nil || !bytes.Equal(rec.payload, []byte{9, 8, 7}) {
		t.Fatalf("payload record round trip: %+v", rec)
	}

	// Empty payload must round-trip as non-nil.
	payEmpty := RegionPair{Out: []uint64{4}, Payload: []byte{}}
	rec, err = decodeRecord(encodeRecord(&payEmpty))
	if err != nil || rec.payload == nil {
		t.Fatalf("empty payload: rec=%+v err=%v", rec, err)
	}
}

func equalU64(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestRecordCodecErrors(t *testing.T) {
	if _, err := decodeRecord(nil); err == nil {
		t.Fatal("empty record accepted")
	}
	if _, err := decodeRecord([]byte{99, 0}); err == nil {
		t.Fatal("bad flags accepted")
	}
	full := encodeRecord(&RegionPair{Out: []uint64{1, 2}, Ins: [][]uint64{{3}}})
	if _, err := decodeRecord(full[:len(full)-1]); err == nil {
		t.Fatal("truncated record accepted")
	}
}

func TestIDListCodec(t *testing.T) {
	for _, ids := range [][]uint64{{}, {0}, {1, 2, 1 << 40}} {
		got, err := decodeIDList(encodeIDList(ids))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(ids) {
			t.Fatalf("got %v, want %v", got, ids)
		}
		for i := range ids {
			if got[i] != ids[i] {
				t.Fatalf("got %v, want %v", got, ids)
			}
		}
	}
	if _, err := decodeIDList(nil); err == nil {
		t.Fatal("nil id list accepted")
	}
}

func TestPayloadListCodec(t *testing.T) {
	lists := [][][]byte{
		{},
		{[]byte("a")},
		{[]byte("x"), {}, []byte("longer payload")},
	}
	for _, l := range lists {
		got, err := decodePayloadList(encodePayloadList(l))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(l) {
			t.Fatalf("got %d payloads, want %d", len(got), len(l))
		}
		for i := range l {
			if !bytes.Equal(got[i], l[i]) {
				t.Fatalf("payload %d mismatch", i)
			}
		}
	}
}
