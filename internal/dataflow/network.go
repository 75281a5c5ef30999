package dataflow

import (
	"fmt"
	"sort"
	"strconv"
	"sync/atomic"

	"npss/internal/trace"
	"npss/internal/vclock"
)

// Node is one module instance placed in a network.
type Node struct {
	Name   string // instance name, unique in the network
	Type   string // module type name (from the factory registry)
	module Module
	spec   Spec
	// outputs holds the most recent Compute results.
	outputs map[string]any
	dirty   bool
}

// widget finds a widget by name.
func (n *Node) widget(name string) *Widget {
	for _, w := range n.spec.widgets {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// Widgets lists the node's widgets (the control panel).
func (n *Node) Widgets() []*Widget { return n.spec.widgets }

// Module returns the node's module implementation (for tests and the
// executive's system module, which needs to reach its peers).
func (n *Node) Module() Module { return n.module }

// connection wires one output port to one input port.
type connection struct {
	fromNode, fromPort string
	toNode, toPort     string
}

// Network is the Network Editor's document: module instances and the
// dataflow connections between them. In NPSS the dataflow models the
// flow of air through the engine.
type Network struct {
	Name  string
	nodes map[string]*Node
	order []string // insertion order, for stable listings
	conns []connection
	clock vclock.Clock // the wavefront's workers are its participants
}

// NewNetwork creates an empty network on the wall clock.
func NewNetwork(name string) *Network {
	return &Network{Name: name, nodes: make(map[string]*Node), clock: vclock.Real()}
}

// SetClock installs the clock the wavefront scheduler starts and joins
// its workers on; nil means the wall clock. An executive whose modules
// call a simulated cluster hands it the cluster's clock, so a virtual
// clock sees every worker.
func (n *Network) SetClock(c vclock.Clock) {
	if c == nil {
		c = vclock.Real()
	}
	n.clock = c
}

// Add instantiates a module into the network under an instance name
// ("low speed shaft"). The module's Spec is invoked once here.
func (n *Network) Add(instance, typeName string, m Module) (*Node, error) {
	if instance == "" || m == nil {
		return nil, fmt.Errorf("dataflow: Add needs an instance name and a module")
	}
	if _, dup := n.nodes[instance]; dup {
		return nil, fmt.Errorf("dataflow: instance %q already in network", instance)
	}
	node := &Node{Name: instance, Type: typeName, module: m, outputs: make(map[string]any), dirty: true}
	m.Spec(&node.spec)
	// Duplicate port or widget names are module bugs; catch them here.
	seen := map[string]bool{}
	for _, p := range node.spec.inputs {
		if seen["i:"+p.Name] {
			return nil, fmt.Errorf("dataflow: module %q declares duplicate input %q", instance, p.Name)
		}
		seen["i:"+p.Name] = true
	}
	for _, p := range node.spec.outputs {
		if seen["o:"+p.Name] {
			return nil, fmt.Errorf("dataflow: module %q declares duplicate output %q", instance, p.Name)
		}
		seen["o:"+p.Name] = true
	}
	for _, w := range node.spec.widgets {
		if seen["w:"+w.Name] {
			return nil, fmt.Errorf("dataflow: module %q declares duplicate widget %q", instance, w.Name)
		}
		seen["w:"+w.Name] = true
	}
	n.nodes[instance] = node
	n.order = append(n.order, instance)
	return node, nil
}

// Node finds an instance by name.
func (n *Network) Node(instance string) (*Node, error) {
	if node, ok := n.nodes[instance]; ok {
		return node, nil
	}
	return nil, fmt.Errorf("dataflow: no instance %q in network", instance)
}

// Nodes lists instances in insertion order.
func (n *Network) Nodes() []*Node {
	out := make([]*Node, 0, len(n.order))
	for _, name := range n.order {
		if node, ok := n.nodes[name]; ok {
			out = append(out, node)
		}
	}
	return out
}

// InstancesOf lists instance names of a module type, sorted — Figure 2
// of the paper shows multiple instances of bleed, compressor, duct,
// mixing volume, shaft, and turbine in the F100 network.
func (n *Network) InstancesOf(typeName string) []string {
	var out []string
	for _, node := range n.nodes {
		if node.Type == typeName {
			out = append(out, node.Name)
		}
	}
	sort.Strings(out)
	return out
}

// Connect wires fromNode's output port to toNode's input port,
// checking port existence, type compatibility, single-driver inputs,
// and acyclicity.
func (n *Network) Connect(fromNode, fromPort, toNode, toPort string) error {
	from, err := n.Node(fromNode)
	if err != nil {
		return err
	}
	to, err := n.Node(toNode)
	if err != nil {
		return err
	}
	var fp, tp *Port
	for i := range from.spec.outputs {
		if from.spec.outputs[i].Name == fromPort {
			fp = &from.spec.outputs[i]
		}
	}
	if fp == nil {
		return fmt.Errorf("dataflow: %q has no output port %q", fromNode, fromPort)
	}
	for i := range to.spec.inputs {
		if to.spec.inputs[i].Name == toPort {
			tp = &to.spec.inputs[i]
		}
	}
	if tp == nil {
		return fmt.Errorf("dataflow: %q has no input port %q", toNode, toPort)
	}
	if fp.Type != tp.Type {
		return fmt.Errorf("dataflow: port type mismatch: %s.%s is %q, %s.%s is %q",
			fromNode, fromPort, fp.Type, toNode, toPort, tp.Type)
	}
	for _, c := range n.conns {
		if c.toNode == toNode && c.toPort == toPort {
			return fmt.Errorf("dataflow: input %s.%s already connected", toNode, toPort)
		}
	}
	n.conns = append(n.conns, connection{fromNode, fromPort, toNode, toPort})
	if _, err := n.topoOrder(); err != nil {
		// Undo the connection that created the cycle.
		n.conns = n.conns[:len(n.conns)-1]
		return err
	}
	to.dirty = true
	return nil
}

// Disconnect removes a connection.
func (n *Network) Disconnect(fromNode, fromPort, toNode, toPort string) error {
	for i, c := range n.conns {
		if c == (connection{fromNode, fromPort, toNode, toPort}) {
			n.conns = append(n.conns[:i], n.conns[i+1:]...)
			if node, ok := n.nodes[toNode]; ok {
				node.dirty = true
			}
			return nil
		}
	}
	return fmt.Errorf("dataflow: no connection %s.%s -> %s.%s", fromNode, fromPort, toNode, toPort)
}

// Remove deletes an instance, dropping its connections and invoking
// the module's Destroy — the lifecycle event the executive maps to
// sch_i_quit.
func (n *Network) Remove(instance string) error {
	node, err := n.Node(instance)
	if err != nil {
		return err
	}
	kept := n.conns[:0]
	for _, c := range n.conns {
		if c.fromNode == instance || c.toNode == instance {
			if c.toNode != instance {
				if to, ok := n.nodes[c.toNode]; ok {
					to.dirty = true
				}
			}
			continue
		}
		kept = append(kept, c)
	}
	n.conns = kept
	delete(n.nodes, instance)
	for i, name := range n.order {
		if name == instance {
			n.order = append(n.order[:i], n.order[i+1:]...)
			break
		}
	}
	node.module.Destroy()
	return nil
}

// Clear removes every instance (clearing the network in the editor).
func (n *Network) Clear() {
	for _, name := range append([]string(nil), n.order...) {
		_ = n.Remove(name)
	}
}

// SetParam changes a widget value and marks the module for
// re-execution, as moving a widget does in AVS.
func (n *Network) SetParam(instance, widget string, value any) error {
	node, err := n.Node(instance)
	if err != nil {
		return err
	}
	w := node.widget(widget)
	if w == nil {
		return fmt.Errorf("dataflow: %q has no widget %q", instance, widget)
	}
	if err := w.set(value); err != nil {
		return err
	}
	node.dirty = true
	return nil
}

// Output reads the most recent value a module wrote to a port.
func (n *Network) Output(instance, port string) (any, error) {
	node, err := n.Node(instance)
	if err != nil {
		return nil, err
	}
	v, ok := node.outputs[port]
	if !ok {
		return nil, fmt.Errorf("dataflow: %s.%s has not produced a value", instance, port)
	}
	return v, nil
}

// topoOrder computes a topological order of the nodes; an error means
// the connections form a cycle.
func (n *Network) topoOrder() ([]*Node, error) {
	indeg := make(map[string]int, len(n.nodes))
	adj := make(map[string][]string)
	for name := range n.nodes {
		indeg[name] = 0
	}
	for _, c := range n.conns {
		adj[c.fromNode] = append(adj[c.fromNode], c.toNode)
		indeg[c.toNode]++
	}
	// Seed with zero-indegree nodes in insertion order for stability.
	var queue []string
	for _, name := range n.order {
		if indeg[name] == 0 {
			queue = append(queue, name)
		}
	}
	var out []*Node
	for len(queue) > 0 {
		name := queue[0]
		queue = queue[1:]
		out = append(out, n.nodes[name])
		for _, next := range adj[name] {
			indeg[next]--
			if indeg[next] == 0 {
				queue = append(queue, next)
			}
		}
	}
	if len(out) != len(n.nodes) {
		return nil, fmt.Errorf("dataflow: network contains a cycle")
	}
	return out, nil
}

// Execute runs the scheduler: modules whose widgets changed or whose
// upstream outputs changed are computed in dataflow order, and fresh
// outputs propagate downstream. It returns the number of modules
// computed. Execute is the sequential scheduler — ExecuteParallel
// with one worker.
func (n *Network) Execute() (int, error) {
	return n.ExecuteParallel(1)
}

// ExecuteParallel runs the scheduler as a wavefront. The topological
// order is sliced into levels: a node's level is one past the deepest
// of its upstream nodes, so every input of a level-k node was produced
// at level < k. Within a level the dirty nodes' inputs are gathered
// first, then their Compute functions run concurrently on up to
// `workers` participants of the network's clock, each taking the
// level's next node in order, then outputs are applied and dirty flags
// propagated in deterministic insertion order before the next level
// starts. Because same-level nodes never feed each other, each module
// sees exactly the inputs the sequential scheduler would have handed
// it, and per-node results are independent of worker count. On a
// Compute error the earlier nodes of that level (in order) keep their
// fresh outputs, later ones stay dirty and recompute on the next
// Execute, and the first error in deterministic order is returned.
func (n *Network) ExecuteParallel(workers int) (int, error) {
	order, err := n.topoOrder()
	if err != nil {
		return 0, err
	}
	if workers < 1 {
		workers = 1
	}
	level := make(map[string]int, len(order))
	maxLevel := 0
	for _, node := range order {
		lv := 0
		for _, c := range n.conns {
			if c.toNode == node.Name {
				if up := level[c.fromNode] + 1; up > lv {
					lv = up
				}
			}
		}
		level[node.Name] = lv
		if lv > maxLevel {
			maxLevel = lv
		}
	}
	computed := 0
	for lv := 0; lv <= maxLevel; lv++ {
		var batch []*Node
		for _, node := range order {
			if level[node.Name] == lv && node.dirty {
				batch = append(batch, node)
			}
		}
		if len(batch) == 0 {
			continue
		}
		ctxs := make([]*Context, len(batch))
		for i, node := range batch {
			ctx := &Context{
				node:   node,
				inputs: make(map[string]any),
				outs:   make(map[string]any),
			}
			for _, c := range n.conns {
				if c.toNode == node.Name {
					if from, ok := n.nodes[c.fromNode]; ok {
						if v, ok := from.outputs[c.fromPort]; ok {
							ctx.inputs[c.toPort] = v
						}
					}
				}
			}
			ctxs[i] = ctx
		}
		errs := make([]error, len(batch))
		// compute runs one node, wrapped in a span when a recorder is
		// installed: one span per dataflow node, laned by batch slot,
		// makes the wavefront schedule visible on a timeline.
		compute := func(i int, node *Node) error {
			if !trace.Enabled() {
				return node.module.Compute(ctxs[i])
			}
			sp := trace.StartSpan("node "+node.Name, "dataflow")
			sp.SetTrack(int64(i) + 1)
			sp.Annotate("level", strconv.Itoa(lv))
			err := node.module.Compute(ctxs[i])
			if err != nil {
				sp.Annotate("error", err.Error())
			}
			sp.End()
			return err
		}
		if workers == 1 || len(batch) == 1 {
			for i, node := range batch {
				if errs[i] = compute(i, node); errs[i] != nil {
					// Stop computing; the rest of the level stays dirty.
					break
				}
			}
		} else {
			var next atomic.Int32
			done := make([]*vclock.Slot, min(workers, len(batch)))
			for w := range done {
				done[w] = n.clock.NewSlot()
				n.clock.Go("dataflow.Network.ExecuteParallel", func() {
					for {
						i := int(next.Add(1)) - 1
						if i >= len(batch) {
							break
						}
						errs[i] = compute(i, batch[i])
					}
					done[w].Fill(nil)
				})
			}
			for _, d := range done {
				d.Wait(0)
			}
		}
		for i, node := range batch {
			if errs[i] != nil {
				return computed, fmt.Errorf("dataflow: computing %q: %w", node.Name, errs[i])
			}
			n.apply(node, ctxs[i])
			computed++
		}
	}
	return computed, nil
}

// apply commits one computed node: clear its dirty flag, store its
// outputs, and mark downstream nodes dirty where an output changed.
func (n *Network) apply(node *Node, ctx *Context) {
	node.dirty = false
	for port, v := range ctx.outs {
		old, had := node.outputs[port]
		node.outputs[port] = v
		if had && safeEqual(old, v) {
			continue
		}
		for _, c := range n.conns {
			if c.fromNode == node.Name && c.fromPort == port {
				if to, ok := n.nodes[c.toNode]; ok {
					to.dirty = true
				}
			}
		}
	}
}

// safeEqual compares two port values, treating non-comparable types
// (slices, maps) as always changed rather than panicking.
func safeEqual(a, b any) (eq bool) {
	defer func() {
		if recover() != nil {
			eq = false
		}
	}()
	return a == b
}

// MarkDirty forces a module to recompute on the next Execute.
func (n *Network) MarkDirty(instance string) error {
	node, err := n.Node(instance)
	if err != nil {
		return err
	}
	node.dirty = true
	return nil
}
