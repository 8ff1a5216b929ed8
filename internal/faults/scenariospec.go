package faults

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"pair/internal/dram"
)

// Fault-scenario spec grammar, with the same canonical-form/ID-stability
// discipline as schemes.ParseSpec:
//
//	name[:key=val,...]
//	compose(spec,spec,...)
//
// where name is a registered scenario ID and the key=val options are
// interpreted by the scenario's constructor hook. compose nests freely.
// Examples:
//
//	retention:pop=1e-6,cluster=2.5
//	rowhammer:radius=1,rate=0.3
//	compose(pin,inherent:ber=1e-5)
//
// The canonical form (ScenarioSpec.String) sorts option keys and keeps
// the raw option values; parsing the canonical form reproduces the spec
// exactly, which keeps campaign labels embedding a spec stable.

// composeID is the grammar keyword for scenario composition; no scenario
// may register under it.
const composeID = "compose"

// ScenarioSpec is a parsed fault-scenario spec. Leaf specs carry an ID
// and options; compose specs carry ID "compose" and the child specs.
type ScenarioSpec struct {
	// ID is the registered scenario identifier, or "compose".
	ID string
	// Options holds the key=val options of a leaf spec, if any.
	Options map[string]string
	// Parts holds the children of a compose spec, in injection order.
	Parts []ScenarioSpec
}

// ParseFaultSpec parses the fault-scenario spec grammar. It only
// validates the syntax; Build resolves the ID and options against the
// registry.
func ParseFaultSpec(spec string) (ScenarioSpec, error) {
	if strings.HasPrefix(spec, composeID+"(") {
		if !strings.HasSuffix(spec, ")") {
			return ScenarioSpec{}, fmt.Errorf("faults: unterminated compose in spec %q", spec)
		}
		inner := spec[len(composeID)+1 : len(spec)-1]
		if inner == "" {
			return ScenarioSpec{}, fmt.Errorf("faults: empty compose in spec %q", spec)
		}
		parts, err := splitFaultSpecs(inner)
		if err != nil {
			return ScenarioSpec{}, fmt.Errorf("faults: %v in spec %q", err, spec)
		}
		s := ScenarioSpec{ID: composeID}
		for _, p := range parts {
			child, err := ParseFaultSpec(p)
			if err != nil {
				return ScenarioSpec{}, err
			}
			s.Parts = append(s.Parts, child)
		}
		return s, nil
	}
	if strings.ContainsAny(spec, "()") {
		return ScenarioSpec{}, fmt.Errorf("faults: malformed spec %q (parentheses only follow %q)", spec, composeID)
	}
	s := ScenarioSpec{}
	head := spec
	if i := strings.IndexByte(spec, ':'); i >= 0 {
		head = spec[:i]
		opts := spec[i+1:]
		if strings.IndexByte(opts, ':') >= 0 {
			// One ':' per leaf keeps every canonical form reparseable when
			// embedded in compose(...) argument lists.
			return ScenarioSpec{}, fmt.Errorf("faults: malformed spec %q (only one ':' allowed)", spec)
		}
		s.Options = map[string]string{}
		for _, kv := range strings.Split(opts, ",") {
			k, v, found := strings.Cut(kv, "=")
			if !found || k == "" {
				return ScenarioSpec{}, fmt.Errorf("faults: malformed option %q in spec %q (want key=val)", kv, spec)
			}
			if _, dup := s.Options[k]; dup {
				return ScenarioSpec{}, fmt.Errorf("faults: duplicate option %q in spec %q", k, spec)
			}
			s.Options[k] = v
		}
	}
	if head == "" {
		return ScenarioSpec{}, fmt.Errorf("faults: empty scenario name in spec %q", spec)
	}
	if head == composeID {
		return ScenarioSpec{}, fmt.Errorf("faults: %q needs a parenthesized spec list in spec %q", composeID, spec)
	}
	s.ID = head
	return s, nil
}

// String renders the spec in canonical form: options sorted by key with
// their raw values, compose children joined in order.
func (s ScenarioSpec) String() string {
	var b strings.Builder
	if s.ID == composeID {
		b.WriteString(composeID)
		b.WriteByte('(')
		for i, p := range s.Parts {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(p.String())
		}
		b.WriteByte(')')
		return b.String()
	}
	b.WriteString(s.ID)
	if len(s.Options) > 0 {
		keys := make([]string, 0, len(s.Options))
		for k := range s.Options {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		sep := byte(':')
		for _, k := range keys {
			b.WriteByte(sep)
			sep = ','
			b.WriteString(k)
			b.WriteByte('=')
			b.WriteString(s.Options[k])
		}
	}
	return b.String()
}

// Build resolves the spec against the scenario registry and constructs
// the scenario. The built scenario's Spec() is this spec's canonical
// form.
func (s ScenarioSpec) Build() (Scenario, error) {
	if s.ID == composeID {
		if len(s.Parts) == 0 {
			return nil, fmt.Errorf("faults: empty compose spec")
		}
		children := make([]Scenario, len(s.Parts))
		for i, p := range s.Parts {
			c, err := p.Build()
			if err != nil {
				return nil, err
			}
			children[i] = c
		}
		inject := func(rng *rand.Rand, chips []dram.Chip) int {
			n := 0
			for _, c := range children {
				n += c.Inject(rng, chips)
			}
			return n
		}
		return &scenarioFunc{spec: s.String(), inject: inject}, nil
	}
	e, ok := LookupScenario(s.ID)
	if !ok {
		return nil, unknownScenarioError(s.ID)
	}
	if err := validateScenarioOptions(e, s.Options); err != nil {
		return nil, err
	}
	fn, err := e.New(s.Options)
	if err != nil {
		return nil, fmt.Errorf("faults: building scenario %q: %w", s.String(), err)
	}
	return &scenarioFunc{spec: s.String(), inject: fn}, nil
}

// NewScenario parses a spec string and builds the scenario it describes.
// Errors enumerate the valid scenario IDs or option keys, all generated
// from the registry.
func NewScenario(spec string) (Scenario, error) {
	s, err := ParseFaultSpec(spec)
	if err != nil {
		return nil, err
	}
	return s.Build()
}

// MustScenario is NewScenario, panicking on error; for specs known at
// compile time.
func MustScenario(spec string) Scenario {
	sc, err := NewScenario(spec)
	if err != nil {
		panic(err)
	}
	return sc
}

// BuildScenarios constructs every spec in the list, stopping at the
// first error.
func BuildScenarios(specs []string) ([]Scenario, error) {
	out := make([]Scenario, 0, len(specs))
	for _, spec := range specs {
		sc, err := NewScenario(spec)
		if err != nil {
			return nil, err
		}
		out = append(out, sc)
	}
	return out, nil
}

// ParseFaultSpecList splits a comma/whitespace-separated spec list and
// builds each entry. Option lists and compose arguments also use commas,
// so a comma continues the current spec when it sits inside parentheses
// or directly follows an option list with another key=val; otherwise it
// separates specs. Whitespace always separates specs.
func ParseFaultSpecList(list string) ([]Scenario, error) {
	specs, err := SplitFaultSpecList(list)
	if err != nil {
		return nil, err
	}
	return BuildScenarios(specs)
}

// SplitFaultSpecList splits a comma/whitespace-separated scenario spec
// list into its individual spec strings, validating only the syntax of
// each — the wire-format helper mirroring schemes.SplitSpecList for
// remote submission.
func SplitFaultSpecList(list string) ([]string, error) {
	var specs []string
	for _, f := range strings.FieldsFunc(list, func(r rune) bool { return r == ' ' || r == '\t' }) {
		parts, err := splitFaultSpecs(f)
		if err != nil {
			return nil, fmt.Errorf("faults: %v in spec list %q", err, list)
		}
		specs = append(specs, parts...)
	}
	for _, spec := range specs {
		if _, err := ParseFaultSpec(spec); err != nil {
			return nil, err
		}
	}
	return specs, nil
}

// splitFaultSpecs splits one whitespace-free token into specs on the
// commas that separate specs: commas inside parentheses never split, and
// a top-level comma followed by a bare key=val (no ':' or '(') continues
// the current spec's option list. Unbalanced parentheses are an error so
// a malformed compose cannot silently become several leaf specs.
func splitFaultSpecs(tok string) ([]string, error) {
	var parts []string
	depth, last := 0, 0
	for i := 0; i < len(tok); i++ {
		switch tok[i] {
		case '(':
			depth++
		case ')':
			depth--
			if depth < 0 {
				return nil, fmt.Errorf("unbalanced %q", ")")
			}
		case ',':
			if depth == 0 {
				parts = append(parts, tok[last:i])
				last = i + 1
			}
		}
	}
	if depth != 0 {
		return nil, fmt.Errorf("unbalanced %q", "(")
	}
	parts = append(parts, tok[last:])

	var out []string
	cur, started := "", false
	for _, p := range parts {
		switch {
		case !started:
			cur, started = p, true
		case strings.Contains(cur, ":") && strings.Contains(p, "=") && !strings.ContainsAny(p, ":("):
			// continuing the current spec's option list
			cur += "," + p
		default:
			out = append(out, cur)
			cur = p
		}
	}
	if started {
		out = append(out, cur)
	}
	return out, nil
}
