package opt

import "subzero/internal/lineage"

// ModelBytes is the analytic storage estimate for strategy s at a node —
// what the optimizer charges an encoding it has not measured — computed
// from the node's profiled volumes.
func (o *Optimizer) ModelBytes(nodeID string, s lineage.Strategy) (int64, error) {
	_, profs, err := o.profiles()
	if err != nil {
		return 0, err
	}
	p := profs[nodeID]
	delete(p.measured, s)
	bytes, _ := o.overheads(p, s)
	return bytes, nil
}
