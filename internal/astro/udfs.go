package astro

import (
	"encoding/binary"
	"fmt"

	"subzero/internal/array"
	"subzero/internal/grid"
	"subzero/internal/lineage"
	"subzero/internal/workflow"
)

// CRRadius is the neighborhood radius a detected cosmic-ray pixel depends
// on (paper §V: "depends on neighboring input cells within 3 pixels").
const CRRadius = 3

// CleanRadius is the interpolation radius of the cosmic-ray removal UDF.
const CleanRadius = 2

// CosmicRayDetect is UDF A/B: it flags pixels whose value exceeds the
// threshold as cosmic rays, emitting a mask of the same shape. A flagged
// output cell depends on the radius-3 neighborhood of its input pixel;
// every other cell depends only on the corresponding pixel. It is a
// composite operator (paper §V-A4): the identity mapping is the default
// and payload pairs (storing the radius) override it for the rare cosmic
// rays.
type CosmicRayDetect struct {
	workflow.Meta
	Threshold float64
}

// NewCosmicRayDetect builds the detector.
func NewCosmicRayDetect(threshold float64) *CosmicRayDetect {
	return &CosmicRayDetect{
		Meta: workflow.Meta{
			OpName: "cosmic-ray-detect",
			NIn:    1,
			Modes:  []lineage.Mode{lineage.Full, lineage.Comp},
		},
		Threshold: threshold,
	}
}

// OutShape implements Operator.
func (c *CosmicRayDetect) OutShape(in []grid.Shape) (grid.Shape, error) {
	return workflow.SameShapeOut(in)
}

// Run implements Operator (compare the paper's CRD pseudocode in §V-A).
func (c *CosmicRayDetect) Run(rc *workflow.RunCtx, ins []*array.Array) (*array.Array, error) {
	in := ins[0]
	out, err := array.New(c.OpName, in.Shape())
	if err != nil {
		return nil, err
	}
	sp := in.Space()
	coord := make(grid.Coord, sp.Rank())
	var neigh []uint64
	outBuf := make([]uint64, 1)
	payload := []byte{CRRadius}
	for idx := uint64(0); idx < sp.Size(); idx++ {
		isCR := in.Get(idx) > c.Threshold
		if isCR {
			out.Set(idx, 1)
		}
		outBuf[0] = idx
		if rc.NeedsPairs() {
			if isCR {
				sp.UnravelInto(idx, coord)
				neigh = grid.Neighborhood(sp, coord, CRRadius, neigh[:0])
				if err := rc.LWrite(outBuf, neigh); err != nil {
					return nil, err
				}
			} else if err := rc.LWrite(outBuf, outBuf); err != nil {
				return nil, err
			}
		}
		if rc.NeedsPayload() && isCR {
			if err := rc.LWritePayload(outBuf, payload); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// MapP implements PayloadMapper: the payload byte is the radius.
func (c *CosmicRayDetect) MapP(mc *workflow.MapCtx, out uint64, payload []byte, _ int, dst []uint64) []uint64 {
	return grid.Neighborhood(mc.InSpaces[0], mc.OutCoord(out), int(payload[0]), dst)
}

// Cover implements Geometry for the composite default: identity.
func (c *CosmicRayDetect) Cover(_ *workflow.MapCtx, _ bool, src grid.Rect, _ int, dst grid.Rect) bool {
	for d := range src.Lo {
		dst.Lo[d], dst.Hi[d] = src.Lo[d], src.Hi[d]
	}
	return true
}

// CosmicRayRemove is UDF C: it replaces pixels flagged in the mask (input
// 1) with the mean of their unflagged neighbors within CleanRadius in the
// image (input 0). Cleaned cells depend on the neighborhoods of both
// inputs; untouched cells depend on their own pixel and mask cell — again
// a composite operator.
type CosmicRayRemove struct {
	workflow.Meta
}

// NewCosmicRayRemove builds the cleaner.
func NewCosmicRayRemove() *CosmicRayRemove {
	return &CosmicRayRemove{Meta: workflow.Meta{
		OpName: "cosmic-ray-remove",
		NIn:    2,
		Modes:  []lineage.Mode{lineage.Full, lineage.Comp},
	}}
}

// OutShape implements Operator.
func (c *CosmicRayRemove) OutShape(in []grid.Shape) (grid.Shape, error) {
	if len(in) != 2 || !in[0].Equal(in[1]) {
		return nil, fmt.Errorf("astro: cosmic-ray-remove requires image and mask of equal shape")
	}
	return in[0].Clone(), nil
}

// Run implements Operator.
func (c *CosmicRayRemove) Run(rc *workflow.RunCtx, ins []*array.Array) (*array.Array, error) {
	img, mask := ins[0], ins[1]
	out, err := array.New(c.OpName, img.Shape())
	if err != nil {
		return nil, err
	}
	sp := img.Space()
	coord := make(grid.Coord, sp.Rank())
	var neigh []uint64
	outBuf := make([]uint64, 1)
	payload := []byte{CleanRadius}
	for idx := uint64(0); idx < sp.Size(); idx++ {
		outBuf[0] = idx
		if mask.Get(idx) == 0 {
			out.Set(idx, img.Get(idx))
			if rc.NeedsPairs() {
				if err := rc.LWrite(outBuf, outBuf, outBuf); err != nil {
					return nil, err
				}
			}
			continue
		}
		sp.UnravelInto(idx, coord)
		neigh = grid.Neighborhood(sp, coord, CleanRadius, neigh[:0])
		sum, n := 0.0, 0
		for _, nb := range neigh {
			if mask.Get(nb) == 0 {
				sum += img.Get(nb)
				n++
			}
		}
		if n > 0 {
			out.Set(idx, sum/float64(n))
		}
		if rc.NeedsPairs() {
			if err := rc.LWrite(outBuf, neigh, neigh); err != nil {
				return nil, err
			}
		}
		if rc.NeedsPayload() {
			if err := rc.LWritePayload(outBuf, payload); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// MapP implements PayloadMapper: the radius-payload neighborhood, in
// whichever input is asked for (cleaning reads both image and mask
// neighborhoods).
func (c *CosmicRayRemove) MapP(mc *workflow.MapCtx, out uint64, payload []byte, inputIdx int, dst []uint64) []uint64 {
	return grid.Neighborhood(mc.InSpaces[inputIdx], mc.OutCoord(out), int(payload[0]), dst)
}

// Cover implements Geometry for the composite default: identity, into and
// from both inputs.
func (c *CosmicRayRemove) Cover(_ *workflow.MapCtx, _ bool, src grid.Rect, _ int, dst grid.Rect) bool {
	for d := range src.Lo {
		dst.Lo[d], dst.Hi[d] = src.Lo[d], src.Hi[d]
	}
	return true
}

// StarDetect is UDF D: it labels connected components of bright pixels
// with star identifiers (paper §IV: "Every output pixel labeled Star X
// depends on all of the input pixels in the Star X region"). It is a
// payload operator: each star emits one region pair whose payload is the
// star's bounding box (16 bytes), and map_p expands the box back into
// input cells. The box may be a slight superset of the exact region,
// which the paper's scientists explicitly allowed; this operator defines
// its lineage to be the box in every mode so all strategies agree.
type StarDetect struct {
	workflow.Meta
	Threshold float64
}

// NewStarDetect builds the detector.
func NewStarDetect(threshold float64) *StarDetect {
	return &StarDetect{
		Meta: workflow.Meta{
			OpName: "star-detect",
			NIn:    1,
			Modes:  []lineage.Mode{lineage.Full, lineage.Pay},
		},
		Threshold: threshold,
	}
}

// OutShape implements Operator.
func (s *StarDetect) OutShape(in []grid.Shape) (grid.Shape, error) {
	return workflow.SameShapeOut(in)
}

// Run implements Operator: threshold + 4-connected flood fill.
func (s *StarDetect) Run(rc *workflow.RunCtx, ins []*array.Array) (*array.Array, error) {
	in := ins[0]
	out, err := array.New(s.OpName, in.Shape())
	if err != nil {
		return nil, err
	}
	sp := in.Space()
	rows, cols := in.Shape()[0], in.Shape()[1]
	visited := make([]bool, sp.Size())
	label := 0
	var stack, region []uint64
	for seed := uint64(0); seed < sp.Size(); seed++ {
		if visited[seed] || in.Get(seed) <= s.Threshold {
			continue
		}
		label++
		region = region[:0]
		stack = append(stack[:0], seed)
		visited[seed] = true
		for len(stack) > 0 {
			cur := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			region = append(region, cur)
			out.Set(cur, float64(label))
			y, x := int(cur)/cols, int(cur)%cols
			for _, d := range [4][2]int{{-1, 0}, {1, 0}, {0, -1}, {0, 1}} {
				ny, nx := y+d[0], x+d[1]
				if ny < 0 || ny >= rows || nx < 0 || nx >= cols {
					continue
				}
				nidx := uint64(ny)*uint64(cols) + uint64(nx)
				if !visited[nidx] && in.Get(nidx) > s.Threshold {
					visited[nidx] = true
					stack = append(stack, nidx)
				}
			}
		}
		if err := s.emitStar(rc, sp, region); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (s *StarDetect) emitStar(rc *workflow.RunCtx, sp *grid.Space, region []uint64) error {
	if !rc.NeedsPairs() && !rc.NeedsPayload() {
		return nil
	}
	bb, ok := grid.BoundingBox(sp, region)
	if !ok {
		return nil
	}
	if rc.NeedsPairs() {
		if err := rc.LWrite(region, bb.Cells(sp, nil)); err != nil {
			return err
		}
	}
	if rc.NeedsPayload() {
		if err := rc.LWritePayload(region, encodeBox(bb)); err != nil {
			return err
		}
	}
	return nil
}

func encodeBox(r grid.Rect) []byte {
	buf := make([]byte, 16)
	binary.LittleEndian.PutUint32(buf[0:], uint32(r.Lo[0]))
	binary.LittleEndian.PutUint32(buf[4:], uint32(r.Lo[1]))
	binary.LittleEndian.PutUint32(buf[8:], uint32(r.Hi[0]))
	binary.LittleEndian.PutUint32(buf[12:], uint32(r.Hi[1]))
	return buf
}

func decodeBox(b []byte) grid.Rect {
	return grid.Rect{
		Lo: grid.Coord{int(binary.LittleEndian.Uint32(b[0:])), int(binary.LittleEndian.Uint32(b[4:]))},
		Hi: grid.Coord{int(binary.LittleEndian.Uint32(b[8:])), int(binary.LittleEndian.Uint32(b[12:]))},
	}
}

// MapP implements PayloadMapper: expand the stored bounding box.
func (s *StarDetect) MapP(mc *workflow.MapCtx, _ uint64, payload []byte, _ int, dst []uint64) []uint64 {
	return decodeBox(payload).Cells(mc.InSpaces[0], dst)
}

// EntireArraySafe: every pixel appears in its own (default or payload)
// pair, so full maps to full in both directions.
func (c *CosmicRayDetect) EntireArraySafe(bool, int) bool { return true }

// EntireArraySafe: as above, for both the image and the mask input.
func (c *CosmicRayRemove) EntireArraySafe(bool, int) bool { return true }
