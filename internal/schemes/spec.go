package schemes

import (
	"fmt"
	"slices"
	"strings"

	"pair/internal/ecc"
	"pair/internal/registry"
)

// New parses a spec string and builds the scheme it describes. Errors
// enumerate the valid scheme IDs, organizations or option keys, all
// generated from the registry.
func New(spec string) (ecc.Scheme, error) {
	s, err := registry.Parse(spec)
	if err != nil {
		return nil, fmt.Errorf("schemes: %w", err)
	}
	e, err := schemeReg.Lookup(s.ID)
	if err != nil {
		return nil, err
	}
	orgID := s.Org
	if orgID == "" {
		orgID = e.DefaultOrg
	}
	if !slices.Contains(e.Orgs, orgID) {
		return nil, fmt.Errorf("schemes: scheme %q does not support organization %q (valid: %s)",
			s.ID, orgID, strings.Join(e.Orgs, "|"))
	}
	org, err := orgReg.Lookup(orgID)
	if err != nil {
		return nil, err
	}
	if err := schemeReg.CheckOptions(s.ID, e.Options, s.Options); err != nil {
		return nil, err
	}
	scheme, err := e.New(org.Org, s.Options)
	if err != nil {
		return nil, fmt.Errorf("schemes: building %q: %w", s.String(), err)
	}
	return scheme, nil
}

// MustNew is New, panicking on error; for specs known at compile time.
func MustNew(spec string) ecc.Scheme {
	s, err := New(spec)
	if err != nil {
		panic(err)
	}
	return s
}

// CanonicalSpec returns the canonical spec string of an entry on an
// organization: the bare ID on its default organization, id@org
// otherwise.
func CanonicalSpec(e *Entry, orgID string) string {
	if orgID == "" || orgID == e.DefaultOrg {
		return e.ID
	}
	return e.ID + "@" + orgID
}

// Build constructs every spec in the list, stopping at the first error.
func Build(specs []string) ([]ecc.Scheme, error) {
	out := make([]ecc.Scheme, 0, len(specs))
	for _, spec := range specs {
		s, err := New(spec)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// ParseSpecList splits a comma/whitespace-separated spec list by
// registry.SplitList's rules and builds each entry.
func ParseSpecList(list string) ([]ecc.Scheme, error) {
	specs, err := registry.SplitList(list)
	if err != nil {
		return nil, fmt.Errorf("schemes: %w", err)
	}
	return Build(specs)
}
