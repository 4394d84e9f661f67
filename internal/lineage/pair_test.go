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

// Validate names the failing cell set in its error, and builds that name
// only on failure: a valid pair validates without allocating.
func TestRegionPairValidateLabels(t *testing.T) {
	outSp := grid.NewSpace(grid.Shape{4})
	inSp := []*grid.Space{grid.NewSpace(grid.Shape{4}), grid.NewSpace(grid.Shape{4})}
	for want, rp := range map[string]RegionPair{
		"lineage: output cell 9 out of range (size 4)":                 {Out: []uint64{9}, Ins: [][]uint64{{0}, {0}}},
		"lineage: input 0 cell 7 out of range (size 4)":                {Out: []uint64{0}, Ins: [][]uint64{{7}, {0}}},
		"lineage: output cells not sorted/deduplicated":                {Out: []uint64{2, 1}, Ins: [][]uint64{{0}, {0}}},
		"lineage: input 1 cells not sorted/deduplicated":               {Out: []uint64{0}, Ins: [][]uint64{{0}, {3, 3}}},
		"lineage: input 1 cell 4 out of range (size 4)":                {Out: []uint64{0}, Ins: [][]uint64{{0}, {1, 4}}},
		"lineage: output cell 4 out of range (size 4)":                 {Out: []uint64{4}, Payload: []byte{}},
		"lineage: region pair with empty output set":                   {Ins: [][]uint64{{0}, {0}}},
		"lineage: region pair has 1 input sets, operator has 2 inputs": {Out: []uint64{0}, Ins: [][]uint64{{0}}},
	} {
		if err := rp.Validate(outSp, inSp); err == nil || err.Error() != want {
			t.Errorf("Validate(%+v) = %v, want %q", rp, err, want)
		}
	}
	valid := RegionPair{Out: []uint64{0, 3}, Ins: [][]uint64{{1, 2}, {0, 1, 2, 3}}}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := valid.Validate(outSp, inSp); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("Validate of a valid pair allocates %.1f/op, want 0", allocs)
	}
}

func TestRecordCodecRoundTrip(t *testing.T) {
	full := RegionPair{Out: []uint64{1, 5, 9}, Ins: [][]uint64{{0, 2}, {7}}}
	rec, err := decodeRecord(appendRecord(nil, &full))
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
	rec, err = decodeRecord(appendRecord(nil, &pay))
	if err != nil {
		t.Fatal(err)
	}
	if rec.ins != nil || !bytes.Equal(rec.payload, []byte{9, 8, 7}) {
		t.Fatalf("payload record round trip: %+v", rec)
	}

	// Empty payload must round-trip as non-nil.
	payEmpty := RegionPair{Out: []uint64{4}, Payload: []byte{}}
	rec, err = decodeRecord(appendRecord(nil, &payEmpty))
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
	full := appendRecord(nil, &RegionPair{Out: []uint64{1, 2}, Ins: [][]uint64{{3}}})
	if _, err := decodeRecord(full[:len(full)-1]); err == nil {
		t.Fatal("truncated record accepted")
	}
}

func TestIDListCodec(t *testing.T) {
	for _, ids := range [][]uint64{{}, {0}, {1, 2, 1 << 40}} {
		got, err := appendIDList(nil, appendIDEntry(nil, ids))
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
	if _, err := appendIDList(nil, nil); err == nil {
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
		var got [][]byte
		if err := forEachPayload(appendPayloadEntry(nil, l), func(p []byte) error {
			got = append(got, p)
			return nil
		}); err != nil {
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
