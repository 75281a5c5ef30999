package scenario

import (
	"fmt"
	"os"
	"time"

	"npss/internal/netsim"
	"npss/internal/schooner"
)

// Decode-time ceilings: a scenario that asks for more than this is
// rejected up front rather than allocated. They bound what a hostile
// or fuzzed file can make Compile build (each fleet host and stress op
// costs real memory and virtual-clock work), and both sit an order of
// magnitude above the largest corpus scenario.
const (
	maxFleet     = 100000
	maxStressOps = 1000000
	maxEventN    = 10000
)

// Spec is a decoded scenario file. Decoding is strict — unknown keys
// and actions are line-numbered errors, not silently ignored — and
// purely syntactic; Compile performs the semantic checks (host
// references, event timing against the fleet ramp).
type Spec struct {
	Name           string
	Seed           int64
	Duration       time.Duration
	SeriesInterval time.Duration
	// Health is the Manager's monitoring policy: nil keeps the
	// workload's default, a negative Interval ("health: off") disables
	// monitoring (the thousand-host setting — per-sweep pinging of the
	// whole fleet would dominate the run).
	Health  *schooner.HealthPolicy
	Standby bool
	// Workload selects what the cluster runs: "dst" (default, the
	// counter/work/accumulator workload of internal/dst) or "table2"
	// (the paper's combined F100 test under faults, table2.go).
	Workload     string
	WorkloadLine int
	Fleet        FleetSpec
	// Faults and Policy are read by the table2 workload only: the
	// degraded links, and the client call policy (PolicyLine is 0 when
	// the file has no policy block).
	Faults     []FaultSpec
	Policy     schooner.CallPolicy
	PolicyLine int
	Events     []EventSpec
	Stress     []StressSpec
	Asserts    []AssertSpec // final assertions, evaluated post-convergence
}

// FleetSpec declares the worker machines: weighted templates expanded
// to Count hosts, plus optional explicit named hosts (always present
// from boot). Templated hosts join over the startup Ramp with seeded
// cold-start jitter.
type FleetSpec struct {
	Count          int
	Ramp           time.Duration
	ColdStartMean  time.Duration
	ColdStartStdev time.Duration
	Templates      []TemplateSpec
	Hosts          []HostDecl
	Line           int
}

// TemplateSpec is one weighted machine class: Count is apportioned
// over the templates by weight, and hosts are named "<name>-<n>".
type TemplateSpec struct {
	Name   string
	Arch   string
	Weight int
	Line   int
}

// HostDecl is one explicitly named machine.
type HostDecl struct {
	Name string
	Arch string
	Line int
}

// FaultSpec degrades the link between two machines for the whole run:
// seeded loss, latency jitter, and flaps.
type FaultSpec struct {
	From, To string
	netsim.FaultSpec
	Line int
}

// EventSpec is one timed entry of the events script.
type EventSpec struct {
	At     time.Duration
	Action string
	Host   string
	Host2  string
	Proc   string
	For    time.Duration // flap_link: partition lifetime
	N      int           // traffic: call count
	Key    string        // assert_counter
	Min    *int64
	Max    *int64
	Line   int
}

// StressSpec is one stress block: Ops generated operations spread
// evenly over Duration starting at At, drawn from a weighted menu
// where FailureRate is the probability an op is a fault injection
// rather than traffic. Seed defaults to a per-block derivation of the
// scenario seed.
type StressSpec struct {
	At          time.Duration
	Duration    time.Duration
	Ops         int
	FailureRate float64
	Seed        int64
	SeedSet     bool
	Line        int
}

// AssertSpec is one assertion check, timed (as an event) or final.
type AssertSpec struct {
	Check string // converged, no_violation, counter, bound_host
	Key   string
	Min   *int64
	Max   *int64
	Proc  string
	Host  string
	Line  int
}

// actions is the event catalog: the fault script vocabulary plus
// traffic and timed assertions.
var actions = map[string]bool{
	"crash_host":      true,
	"restore_host":    true,
	"partition":       true,
	"heal":            true,
	"flap_link":       true,
	"migrate_proc":    true,
	"manager_crash":   true,
	"manager_recover": true,
	"checkpoint_now":  true,
	"work":            true,
	"batch":           true,
	"acc":             true,
	"settle":          true,
	// Timed assertions: probes evaluated mid-run at their instant.
	"assert_counter":      true,
	"assert_bound_host":   true,
	"assert_no_violation": true,
}

// Load reads, parses, and decodes a scenario file. Errors carry the
// file name and the 1-based line number.
func Load(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	spec, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return spec, nil
}

// Decode parses scenario YAML and decodes it into a Spec.
func Decode(data []byte) (*Spec, error) {
	root, err := parse(data)
	if err != nil {
		return nil, err
	}
	return decodeSpec(root)
}

func decodeSpec(root *node) (*Spec, error) {
	s := &Spec{Seed: 1}
	for _, p := range root.pairs {
		var err error
		switch p.key {
		case "name":
			s.Name, err = p.val.asString("name")
		case "seed":
			s.Seed, err = p.val.asInt64("seed")
		case "duration":
			s.Duration, err = p.val.asDur("duration")
		case "series_interval":
			s.SeriesInterval, err = p.val.asDur("series_interval")
		case "health":
			s.Health, err = decodeHealth(p.val)
		case "standby":
			s.Standby, err = p.val.asBool("standby")
		case "workload":
			s.Workload, err = p.val.asString("workload")
			s.WorkloadLine = p.line
		case "fleet":
			err = decodeFleet(p.val, &s.Fleet)
		case "faults":
			s.Faults, err = decodeFaults(p.val)
		case "policy":
			s.Policy, err = decodePolicy(p.val)
			s.PolicyLine = p.line
		case "events":
			s.Events, err = decodeEvents(p.val)
		case "stress":
			s.Stress, err = decodeStress(p.val)
		case "assertions":
			s.Asserts, err = decodeAsserts(p.val)
		default:
			err = errAt(p.line, "unknown key %q", p.key)
		}
		if err != nil {
			return nil, err
		}
	}
	if s.Name == "" {
		return nil, errAt(root.line, "missing required key \"name\"")
	}
	if s.Duration <= 0 {
		return nil, errAt(root.line, "missing required key \"duration\"")
	}
	if s.Fleet.Line == 0 {
		return nil, errAt(root.line, "missing required key \"fleet\"")
	}
	return s, nil
}

// decodeHealth accepts "off" or a mapping of every health-policy field.
func decodeHealth(n *node) (*schooner.HealthPolicy, error) {
	if n.kind == nScalar && n.val == "off" {
		return &schooner.HealthPolicy{Interval: -1}, nil
	}
	if n.kind != nMap {
		return nil, errAt(n.line, "health: want \"off\" or a mapping of interval, threshold and ping_timeout")
	}
	h := &schooner.HealthPolicy{}
	for _, p := range n.pairs {
		var err error
		switch p.key {
		case "interval":
			h.Interval, err = p.val.asDur("health.interval")
		case "threshold":
			h.Threshold, err = p.val.asInt("health.threshold")
		case "ping_timeout":
			h.PingTimeout, err = p.val.asDur("health.ping_timeout")
		default:
			err = errAt(p.line, "unknown health key %q", p.key)
		}
		if err != nil {
			return nil, err
		}
	}
	if h.Interval <= 0 || h.Threshold <= 0 || h.PingTimeout <= 0 {
		return nil, errAt(n.line, "health: interval, threshold and ping_timeout must all be given and positive")
	}
	return h, nil
}

// decodePolicy reads the client call policy; every field is required.
func decodePolicy(n *node) (schooner.CallPolicy, error) {
	var c schooner.CallPolicy
	if n.kind != nMap {
		return c, errAt(n.line, "policy: expected a mapping")
	}
	for _, p := range n.pairs {
		var err error
		switch p.key {
		case "timeout":
			c.Timeout, err = p.val.asDur("policy.timeout")
		case "retries":
			c.MaxRetries, err = p.val.asInt("policy.retries")
		case "backoff":
			c.Backoff, err = p.val.asDur("policy.backoff")
		case "max_backoff":
			c.MaxBackoff, err = p.val.asDur("policy.max_backoff")
		default:
			err = errAt(p.line, "unknown policy key %q", p.key)
		}
		if err != nil {
			return c, err
		}
	}
	if c.Timeout <= 0 || c.MaxRetries <= 0 || c.Backoff <= 0 || c.MaxBackoff <= 0 {
		return c, errAt(n.line, "policy: timeout, retries, backoff and max_backoff must all be given and positive")
	}
	return c, nil
}

// decodeFaults reads the per-link fault list.
func decodeFaults(n *node) ([]FaultSpec, error) {
	if n.kind != nSeq {
		return nil, errAt(n.line, "faults: expected a sequence")
	}
	var out []FaultSpec
	for _, item := range n.items {
		if item.kind != nMap {
			return nil, errAt(item.line, "faults: each fault is a mapping")
		}
		f := FaultSpec{Line: item.line}
		for _, p := range item.pairs {
			var err error
			switch p.key {
			case "from":
				f.From, err = p.val.asString("fault.from")
			case "to":
				f.To, err = p.val.asString("fault.to")
			case "loss":
				f.LossProb, err = p.val.asFloat("fault.loss")
			case "jitter":
				f.MaxJitter, err = p.val.asDur("fault.jitter")
			case "flap_every":
				f.FlapEvery, err = p.val.asInt("fault.flap_every")
			case "flap_len":
				f.FlapLen, err = p.val.asInt("fault.flap_len")
			default:
				err = errAt(p.line, "unknown fault key %q", p.key)
			}
			if err != nil {
				return nil, err
			}
		}
		if f.From == "" || f.To == "" || f.From == f.To {
			return nil, errAt(item.line, "fault needs two different machines \"from\" and \"to\"")
		}
		if f.LossProb < 0 || f.LossProb > 1 {
			return nil, errAt(item.line, "fault.loss must be in [0, 1]")
		}
		if f.MaxJitter < 0 || f.FlapEvery < 0 || f.FlapLen < 0 {
			return nil, errAt(item.line, "fault jitter and flap parameters must be non-negative")
		}
		out = append(out, f)
	}
	return out, nil
}

func decodeFleet(n *node, f *FleetSpec) error {
	if n.kind != nMap {
		return errAt(n.line, "fleet: expected a mapping")
	}
	f.Line = n.line
	for _, p := range n.pairs {
		var err error
		switch p.key {
		case "count":
			f.Count, err = p.val.asInt("fleet.count")
		case "ramp":
			f.Ramp, err = p.val.asDur("fleet.ramp")
		case "cold_start_mean":
			f.ColdStartMean, err = p.val.asDur("fleet.cold_start_mean")
		case "cold_start_stddev":
			f.ColdStartStdev, err = p.val.asDur("fleet.cold_start_stddev")
		case "templates":
			err = decodeTemplates(p.val, f)
		case "hosts":
			err = decodeHostDecls(p.val, f)
		default:
			err = errAt(p.line, "unknown fleet key %q", p.key)
		}
		if err != nil {
			return err
		}
	}
	if f.Count < 0 {
		return errAt(f.Line, "fleet.count must be non-negative")
	}
	if f.Count > maxFleet {
		return errAt(f.Line, "fleet.count %d exceeds the %d-host ceiling", f.Count, maxFleet)
	}
	if f.Count > 0 && len(f.Templates) == 0 {
		return errAt(f.Line, "fleet.count needs fleet.templates to expand")
	}
	if f.Ramp < 0 || f.ColdStartMean < 0 || f.ColdStartStdev < 0 {
		return errAt(f.Line, "fleet ramp and cold-start parameters must be non-negative")
	}
	return nil
}

func decodeTemplates(n *node, f *FleetSpec) error {
	if n.kind != nSeq {
		return errAt(n.line, "fleet.templates: expected a sequence")
	}
	for _, item := range n.items {
		if item.kind != nMap {
			return errAt(item.line, "fleet.templates: each template is a mapping")
		}
		t := TemplateSpec{Line: item.line, Weight: 1}
		for _, p := range item.pairs {
			var err error
			switch p.key {
			case "name":
				t.Name, err = p.val.asString("template.name")
			case "arch":
				t.Arch, err = p.val.asString("template.arch")
			case "weight":
				t.Weight, err = p.val.asInt("template.weight")
			default:
				err = errAt(p.line, "unknown template key %q", p.key)
			}
			if err != nil {
				return err
			}
		}
		if t.Name == "" {
			return errAt(item.line, "template missing \"name\"")
		}
		if t.Arch == "" {
			return errAt(item.line, "template %q missing \"arch\"", t.Name)
		}
		if t.Weight <= 0 {
			return errAt(item.line, "template %q: weight must be positive", t.Name)
		}
		f.Templates = append(f.Templates, t)
	}
	return nil
}

func decodeHostDecls(n *node, f *FleetSpec) error {
	if n.kind != nSeq {
		return errAt(n.line, "fleet.hosts: expected a sequence")
	}
	for _, item := range n.items {
		if item.kind != nMap {
			return errAt(item.line, "fleet.hosts: each host is a mapping")
		}
		h := HostDecl{Line: item.line}
		for _, p := range item.pairs {
			var err error
			switch p.key {
			case "name":
				h.Name, err = p.val.asString("host.name")
			case "arch":
				h.Arch, err = p.val.asString("host.arch")
			default:
				err = errAt(p.line, "unknown host key %q", p.key)
			}
			if err != nil {
				return err
			}
		}
		if h.Name == "" {
			return errAt(item.line, "host missing \"name\"")
		}
		if h.Arch == "" {
			return errAt(item.line, "host %q missing \"arch\"", h.Name)
		}
		f.Hosts = append(f.Hosts, h)
	}
	return nil
}

func decodeEvents(n *node) ([]EventSpec, error) {
	if n.kind != nSeq {
		return nil, errAt(n.line, "events: expected a sequence")
	}
	var out []EventSpec
	for _, item := range n.items {
		if item.kind != nMap {
			return nil, errAt(item.line, "events: each event is a mapping")
		}
		e := EventSpec{Line: item.line, At: -1, N: 1}
		for _, p := range item.pairs {
			var err error
			switch p.key {
			case "at":
				e.At, err = p.val.asDur("at")
			case "action":
				e.Action, err = p.val.asString("action")
			case "host":
				e.Host, err = p.val.asString("host")
			case "host2":
				e.Host2, err = p.val.asString("host2")
			case "proc":
				e.Proc, err = p.val.asString("proc")
			case "for":
				e.For, err = p.val.asDur("for")
			case "n":
				e.N, err = p.val.asInt("n")
			case "key":
				e.Key, err = p.val.asString("key")
			case "min":
				var v int64
				v, err = p.val.asInt64("min")
				e.Min = &v
			case "max":
				var v int64
				v, err = p.val.asInt64("max")
				e.Max = &v
			default:
				err = errAt(p.line, "unknown event key %q", p.key)
			}
			if err != nil {
				return nil, err
			}
		}
		if e.Action == "" {
			return nil, errAt(item.line, "event missing \"action\"")
		}
		if !actions[e.Action] {
			return nil, errAt(item.line, "unknown action %q", e.Action)
		}
		if e.At < 0 {
			if e.At == -1 && noAtKey(item) {
				return nil, errAt(item.line, "event %q missing \"at\"", e.Action)
			}
			return nil, errAt(item.line, "event %q: negative at: %s", e.Action, e.At)
		}
		if e.N <= 0 {
			return nil, errAt(item.line, "event %q: n must be positive", e.Action)
		}
		if e.N > maxEventN {
			return nil, errAt(item.line, "event %q: n %d exceeds the %d-call ceiling", e.Action, e.N, maxEventN)
		}
		out = append(out, e)
	}
	return out, nil
}

// noAtKey distinguishes a missing at: from an explicit at: -1ms.
func noAtKey(item *node) bool {
	return item.get("at") == nil
}

func decodeStress(n *node) ([]StressSpec, error) {
	if n.kind != nSeq {
		return nil, errAt(n.line, "stress: expected a sequence")
	}
	var out []StressSpec
	for _, item := range n.items {
		if item.kind != nMap {
			return nil, errAt(item.line, "stress: each block is a mapping")
		}
		b := StressSpec{Line: item.line}
		for _, p := range item.pairs {
			var err error
			switch p.key {
			case "at":
				b.At, err = p.val.asDur("stress.at")
			case "duration":
				b.Duration, err = p.val.asDur("stress.duration")
			case "ops":
				b.Ops, err = p.val.asInt("stress.ops")
			case "failure_rate":
				b.FailureRate, err = p.val.asFloat("stress.failure_rate")
			case "seed":
				b.Seed, err = p.val.asInt64("stress.seed")
				b.SeedSet = true
			default:
				err = errAt(p.line, "unknown stress key %q", p.key)
			}
			if err != nil {
				return nil, err
			}
		}
		if b.At < 0 {
			return nil, errAt(item.line, "stress block: negative at: %s", b.At)
		}
		if b.Duration <= 0 {
			return nil, errAt(item.line, "stress block needs a positive \"duration\"")
		}
		if b.Ops <= 0 {
			return nil, errAt(item.line, "stress block needs a positive \"ops\"")
		}
		if b.Ops > maxStressOps {
			return nil, errAt(item.line, "stress.ops %d exceeds the %d-op ceiling", b.Ops, maxStressOps)
		}
		if b.FailureRate < 0 || b.FailureRate > 1 {
			return nil, errAt(item.line, "stress.failure_rate must be in [0, 1]")
		}
		out = append(out, b)
	}
	return out, nil
}

var checks = map[string]bool{
	"converged":    true,
	"no_violation": true,
	"counter":      true,
	"bound_host":   true,
}

func decodeAsserts(n *node) ([]AssertSpec, error) {
	if n.kind != nSeq {
		return nil, errAt(n.line, "assertions: expected a sequence")
	}
	var out []AssertSpec
	for _, item := range n.items {
		a := AssertSpec{Line: item.line}
		if item.kind == nScalar {
			a.Check = item.val
		} else if item.kind == nMap {
			for _, p := range item.pairs {
				var err error
				switch p.key {
				case "check":
					a.Check, err = p.val.asString("check")
				case "key":
					a.Key, err = p.val.asString("key")
				case "min":
					var v int64
					v, err = p.val.asInt64("min")
					a.Min = &v
				case "max":
					var v int64
					v, err = p.val.asInt64("max")
					a.Max = &v
				case "proc":
					a.Proc, err = p.val.asString("proc")
				case "host":
					a.Host, err = p.val.asString("host")
				default:
					err = errAt(p.line, "unknown assertion key %q", p.key)
				}
				if err != nil {
					return nil, err
				}
			}
		} else {
			return nil, errAt(item.line, "assertions: each entry is a check name or a mapping")
		}
		if a.Check == "" {
			return nil, errAt(item.line, "assertion missing \"check\"")
		}
		if !checks[a.Check] {
			return nil, errAt(item.line, "unknown assertion check %q", a.Check)
		}
		if err := validateAssert(a); err != nil {
			return nil, err
		}
		out = append(out, a)
	}
	return out, nil
}

// validateAssert checks the per-check required fields.
func validateAssert(a AssertSpec) error {
	switch a.Check {
	case "counter":
		if a.Key == "" {
			return errAt(a.Line, "counter assertion needs \"key\"")
		}
		if a.Min == nil && a.Max == nil {
			return errAt(a.Line, "counter assertion needs \"min\" and/or \"max\"")
		}
	case "bound_host":
		if a.Proc == "" || a.Host == "" {
			return errAt(a.Line, "bound_host assertion needs \"proc\" and \"host\"")
		}
	}
	return nil
}
