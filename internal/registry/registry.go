// Package registry holds the one spec grammar and the one registry type
// behind every addressable family of the study: schemes, organizations
// and scheme sets (internal/schemes), fault scenarios (internal/faults)
// and memory profiles (internal/memsim).
//
// # Spec grammar
//
// A spec is a leaf or a composition:
//
//	name[@org][:key=val,...]
//	compose(spec,spec,...)
//
// A leaf has at most one ':', after which come its key=val options; the
// organization, when given, sits between the name and the options.
// compose nests freely. Parse checks only the syntax: each family looks
// the name up in its own Registry, checks the option keys against the
// entry's OptionDocs and rejects the parts it does not take (only
// schemes take an organization, only fault scenarios compose).
//
//	pair@ddr5x16:exp=4           a scheme on an organization
//	retention:pop=1e-6,cluster=2 a fault scenario with two options
//	compose(pin,inherent:ber=1e-5)
//	ddr5-4800:policy=closed      a memory profile
//
// The canonical form (Spec.String) sorts the option keys and keeps the
// raw values, so parsing the canonical form gives it back byte for byte:
// campaign labels and checkpoint names embed it.
package registry

import (
	"fmt"
	"sort"
	"strings"
)

// Compose is the grammar's composition keyword; no registry accepts it
// as an ID.
const Compose = "compose"

// Spec is a parsed spec. A leaf carries an ID, an optional organization
// and its options; a composition carries ID Compose and its parts.
type Spec struct {
	ID string
	// Org is the organization after '@', or "" when the spec names none.
	Org string
	// Options holds the key=val options; nil when the spec has no ':'.
	Options map[string]string
	// Parts holds the specs of a composition, in order.
	Parts []Spec
}

// Parse parses one spec of the grammar.
func Parse(spec string) (Spec, error) {
	if inner, ok := strings.CutPrefix(spec, Compose+"("); ok {
		inner, ok = strings.CutSuffix(inner, ")")
		if !ok {
			return Spec{}, fmt.Errorf("unterminated %s in spec %q", Compose, spec)
		}
		if inner == "" {
			return Spec{}, fmt.Errorf("empty %s in spec %q", Compose, spec)
		}
		parts, err := split(inner)
		if err != nil {
			return Spec{}, fmt.Errorf("%v in spec %q", err, spec)
		}
		s := Spec{ID: Compose}
		for _, p := range parts {
			part, err := Parse(p)
			if err != nil {
				return Spec{}, err
			}
			s.Parts = append(s.Parts, part)
		}
		return s, nil
	}
	if strings.ContainsAny(spec, "()") {
		return Spec{}, fmt.Errorf("malformed spec %q (parentheses only follow %q)", spec, Compose)
	}
	head, opts, hasOpts := strings.Cut(spec, ":")
	s := Spec{ID: head}
	if hasOpts {
		if strings.Contains(opts, ":") {
			// One ':' per leaf keeps every canonical form reparseable
			// inside a compose(...) argument list.
			return Spec{}, fmt.Errorf("malformed spec %q (only one ':' allowed)", spec)
		}
		s.Options = map[string]string{}
		for _, kv := range strings.Split(opts, ",") {
			k, v, found := strings.Cut(kv, "=")
			if !found || k == "" {
				return Spec{}, fmt.Errorf("malformed option %q in spec %q (want key=val)", kv, spec)
			}
			if _, dup := s.Options[k]; dup {
				return Spec{}, fmt.Errorf("duplicate option %q in spec %q", k, spec)
			}
			s.Options[k] = v
		}
	}
	if id, org, ok := strings.Cut(head, "@"); ok {
		if org == "" {
			return Spec{}, fmt.Errorf("empty organization in spec %q", spec)
		}
		s.ID, s.Org = id, org
	}
	if s.ID == "" {
		return Spec{}, fmt.Errorf("empty name in spec %q", spec)
	}
	if s.ID == Compose {
		return Spec{}, fmt.Errorf("%q needs a parenthesized spec list in spec %q", Compose, spec)
	}
	return s, nil
}

// Keys returns the option keys, sorted.
func (s Spec) Keys() []string {
	keys := make([]string, 0, len(s.Options))
	for k := range s.Options {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// String renders the spec in canonical form: option keys sorted with
// their raw values, the parts of a composition in order.
func (s Spec) String() string {
	var b strings.Builder
	s.write(&b)
	return b.String()
}

func (s Spec) write(b *strings.Builder) {
	b.WriteString(s.ID)
	if s.ID == Compose {
		b.WriteByte('(')
		for i, p := range s.Parts {
			if i > 0 {
				b.WriteByte(',')
			}
			p.write(b)
		}
		b.WriteByte(')')
		return
	}
	if s.Org != "" {
		b.WriteByte('@')
		b.WriteString(s.Org)
	}
	sep := byte(':')
	for _, k := range s.Keys() {
		b.WriteByte(sep)
		sep = ','
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(s.Options[k])
	}
}

// SplitList splits a list of specs and parses each, so a list holding a
// malformed spec is rejected whole. Whitespace always separates specs. A
// comma separates them too, except inside parentheses and before a bare
// key=val (one with no ':' or '('), which continues the option list of
// the spec before it.
func SplitList(list string) ([]string, error) {
	var specs []string
	for _, tok := range strings.FieldsFunc(list, func(r rune) bool { return r == ' ' || r == '\t' }) {
		parts, err := split(tok)
		if err != nil {
			return nil, fmt.Errorf("%v in spec list %q", err, list)
		}
		specs = append(specs, parts...)
	}
	for _, spec := range specs {
		if _, err := Parse(spec); err != nil {
			return nil, err
		}
	}
	return specs, nil
}

// split splits one whitespace-free token on the commas that separate
// specs. Unbalanced parentheses are an error, so a malformed compose
// cannot silently become several leaves.
func split(tok string) ([]string, error) {
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

	out := []string{parts[0]}
	for _, p := range parts[1:] {
		if cur := len(out) - 1; strings.Contains(out[cur], ":") && strings.Contains(p, "=") && !strings.ContainsAny(p, ":(") {
			out[cur] += "," + p
		} else {
			out = append(out, p)
		}
	}
	return out, nil
}

// OptionDoc documents one option key an entry accepts.
type OptionDoc struct {
	Key string
	Doc string
}

// Registry is one family's entries under their IDs, in registration
// order, which is also presentation order. Entries are added from the
// family's init functions and only read afterwards.
type Registry[E any] struct {
	pkg, kind string
	byID      map[string]E
	ids       []string
	entries   []E
}

// New returns an empty registry. Its errors start with pkg and name its
// entries kind: "memsim: unknown profile ...".
func New[E any](pkg, kind string) *Registry[E] {
	return &Registry[E]{pkg: pkg, kind: kind, byID: map[string]E{}}
}

// Add registers e under id. It panics on an empty ID, one outside the
// spec name alphabet [a-z0-9-], the keyword compose, or a duplicate:
// registration runs from init functions, where a panic is a build-time
// error, and every registered ID stays addressable by spec.
func (r *Registry[E]) Add(id string, e E) {
	if id == "" || strings.Trim(id, "abcdefghijklmnopqrstuvwxyz0123456789-") != "" {
		panic(fmt.Sprintf("%s: %s ID %q outside the spec name alphabet [a-z0-9-]", r.pkg, r.kind, id))
	}
	if id == Compose {
		panic(fmt.Sprintf("%s: %s ID %q is reserved by the spec grammar", r.pkg, r.kind, id))
	}
	if _, dup := r.byID[id]; dup {
		panic(fmt.Sprintf("%s: duplicate %s %q", r.pkg, r.kind, id))
	}
	r.byID[id] = e
	r.ids = append(r.ids, id)
	r.entries = append(r.entries, e)
}

// Lookup returns the entry registered under id. Its error lists every
// registered ID, so it cannot drift from the registry.
func (r *Registry[E]) Lookup(id string) (E, error) {
	e, ok := r.byID[id]
	if !ok {
		return e, fmt.Errorf("%s: unknown %s %q (valid: %s)", r.pkg, r.kind, id, strings.Join(r.ids, "|"))
	}
	return e, nil
}

// IDs returns every registered ID, in registration order.
func (r *Registry[E]) IDs() []string { return append([]string(nil), r.ids...) }

// All returns every registered entry, in registration order.
func (r *Registry[E]) All() []E { return append([]E(nil), r.entries...) }

// CheckOptions rejects any option key of the entry registered under id
// that docs does not document; the error lists the keys docs does.
func (r *Registry[E]) CheckOptions(id string, docs []OptionDoc, opts map[string]string) error {
	keys := make([]string, len(docs))
	valid := map[string]bool{}
	for i, d := range docs {
		keys[i] = d.Key
		valid[d.Key] = true
	}
	var bad []string
	for k := range opts {
		if !valid[k] {
			bad = append(bad, k)
		}
	}
	if len(bad) == 0 {
		return nil
	}
	sort.Strings(bad)
	if len(docs) == 0 {
		return fmt.Errorf("%s: %s %q takes no options, got %s", r.pkg, r.kind, id, strings.Join(bad, ","))
	}
	return fmt.Errorf("%s: %s %q does not accept option(s) %s (valid: %s)",
		r.pkg, r.kind, id, strings.Join(bad, ","), strings.Join(keys, "|"))
}
