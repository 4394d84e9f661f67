package workflow

import (
	"fmt"
)

// Input identifies where one operator input comes from: either the output
// of another node in the workflow, or an external (source) array looked up
// by name at execution time.
type Input struct {
	// Node is the producing node's id; empty for external inputs.
	Node string
	// External is the source array's name; set iff Node is empty.
	External string
}

// FromNode references another node's output.
func FromNode(id string) Input { return Input{Node: id} }

// FromExternal references a source array provided to Execute.
func FromExternal(name string) Input { return Input{External: name} }

// Node is one operator instance in a workflow specification.
type Node struct {
	ID     string
	Op     Operator
	Inputs []Input
}

// Spec is a workflow specification: a DAG W = (N, E) where an edge
// (O_P, I_{P'}^i) wires the output of P to the i'th input of P' (paper
// §IV).
type Spec struct {
	Name  string
	nodes []*Node
	byID  map[string]*Node
}

// NewSpec creates an empty workflow specification.
func NewSpec(name string) *Spec {
	return &Spec{Name: name, byID: make(map[string]*Node)}
}

// Add appends a node wired to the given inputs. It panics on duplicate ids
// or input-arity mismatch, which are programming errors in workflow
// construction.
func (s *Spec) Add(id string, op Operator, inputs ...Input) *Node {
	if _, dup := s.byID[id]; dup {
		panic(fmt.Sprintf("workflow: duplicate node id %q", id))
	}
	if len(inputs) != op.NumInputs() {
		panic(fmt.Sprintf("workflow: node %q wired with %d inputs, operator %s takes %d",
			id, len(inputs), op.Name(), op.NumInputs()))
	}
	n := &Node{ID: id, Op: op, Inputs: inputs}
	s.nodes = append(s.nodes, n)
	s.byID[id] = n
	return n
}

// Node returns the node with the given id, or nil.
func (s *Spec) Node(id string) *Node { return s.byID[id] }

// Nodes returns the nodes in insertion order.
func (s *Spec) Nodes() []*Node { return s.nodes }

// Validate checks that all referenced producers exist and the graph is
// acyclic.
func (s *Spec) Validate() error {
	for _, n := range s.nodes {
		for i, in := range n.Inputs {
			switch {
			case in.Node == "" && in.External == "":
				return fmt.Errorf("workflow: node %q input %d is unwired", n.ID, i)
			case in.Node != "" && in.External != "":
				return fmt.Errorf("workflow: node %q input %d is doubly wired", n.ID, i)
			case in.Node != "":
				if s.byID[in.Node] == nil {
					return fmt.Errorf("workflow: node %q input %d references unknown node %q", n.ID, i, in.Node)
				}
			}
		}
	}
	_, err := s.TopoOrder()
	return err
}

// TopoOrder returns the nodes in a dependency-respecting order, or an
// error if the graph has a cycle.
func (s *Spec) TopoOrder() ([]*Node, error) {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[string]int, len(s.nodes))
	var order []*Node
	var visit func(n *Node) error
	visit = func(n *Node) error {
		switch color[n.ID] {
		case gray:
			return fmt.Errorf("workflow: cycle through node %q", n.ID)
		case black:
			return nil
		}
		color[n.ID] = gray
		for _, in := range n.Inputs {
			if in.Node != "" {
				if err := visit(s.byID[in.Node]); err != nil {
					return err
				}
			}
		}
		color[n.ID] = black
		order = append(order, n)
		return nil
	}
	for _, n := range s.nodes {
		if err := visit(n); err != nil {
			return nil, err
		}
	}
	return order, nil
}
