package lineage

import (
	"sort"
	"sync"
	"time"
)

// OpStats aggregates the statistics collector's view of one operator
// instance (paper Figure 3: the collector feeds the optimizer measured
// execution times, lineage volumes, and observed query fanin/fanout).
type OpStats struct {
	NodeID string

	// Write path.
	Runs         int
	ExecTime     time.Duration // operator computation, excluding lwrite
	LineageTime  time.Duration // time inside the lwrite API
	Pairs        int64
	OutCells     int64
	InCells      int64
	PayloadBytes int64

	// Query path.
	QuerySteps int
	QueryTime  time.Duration
	Reexecs    int
}

// AvgExecTime returns the mean single-run execution time, the cost of a
// black-box re-execution.
func (s *OpStats) AvgExecTime() time.Duration {
	if s.Runs == 0 {
		return 0
	}
	return s.ExecTime / time.Duration(s.Runs)
}

// Collector accumulates OpStats per operator instance. It is safe for
// concurrent use.
type Collector struct {
	mu     sync.Mutex
	byNode map[string]*OpStats
}

// NewCollector creates an empty collector.
func NewCollector() *Collector {
	return &Collector{byNode: make(map[string]*OpStats)}
}

func (c *Collector) get(nodeID string) *OpStats {
	st, ok := c.byNode[nodeID]
	if !ok {
		st = &OpStats{NodeID: nodeID}
		c.byNode[nodeID] = st
	}
	return st
}

// RecordRun records one operator execution: computation time, lwrite
// overhead, and the pair/cell volumes written.
func (c *Collector) RecordRun(nodeID string, exec, lineageTime time.Duration, pairs, outCells, inCells, payloadBytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.get(nodeID)
	st.Runs++
	st.ExecTime += exec
	st.LineageTime += lineageTime
	st.Pairs += pairs
	st.OutCells += outCells
	st.InCells += inCells
	st.PayloadBytes += payloadBytes
}

// RecordQueryStep records one lineage-query step executed at an operator:
// how long it took, and whether it required re-executing the operator.
func (c *Collector) RecordQueryStep(nodeID string, elapsed time.Duration, reexec bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.get(nodeID)
	st.QuerySteps++
	st.QueryTime += elapsed
	if reexec {
		st.Reexecs++
	}
}

// Get returns a copy of the stats for a node (zero value if unseen).
func (c *Collector) Get(nodeID string) OpStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	if st, ok := c.byNode[nodeID]; ok {
		return *st
	}
	return OpStats{NodeID: nodeID}
}

// All returns copies of every node's stats, sorted by node id.
func (c *Collector) All() []OpStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]OpStats, 0, len(c.byNode))
	for _, st := range c.byNode {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].NodeID < out[j].NodeID })
	return out
}
