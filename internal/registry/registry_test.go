package registry

import (
	"reflect"
	"slices"
	"testing"
)

func TestParse(t *testing.T) {
	cases := []struct {
		in   string
		want Spec
	}{
		{"pair", Spec{ID: "pair"}},
		{"pair@ddr5x16", Spec{ID: "pair", Org: "ddr5x16"}},
		{"pair:spare=3.7", Spec{ID: "pair", Options: map[string]string{"spare": "3.7"}}},
		{"pair@ddr5x16:exp=4,lat=2.5", Spec{ID: "pair", Org: "ddr5x16", Options: map[string]string{"exp": "4", "lat": "2.5"}}},
		{"duo-rank@ddr4x8ecc", Spec{ID: "duo-rank", Org: "ddr4x8ecc"}},
		{"pair:spare=", Spec{ID: "pair", Options: map[string]string{"spare": ""}}},
		// '@' after the ':' is part of an option value.
		{"a:k=v@w", Spec{ID: "a", Options: map[string]string{"k": "v@w"}}},
		{"compose(pin,retention:pop=1e-6,cluster=2.5)", Spec{ID: Compose, Parts: []Spec{
			{ID: "pin"},
			{ID: "retention", Options: map[string]string{"pop": "1e-6", "cluster": "2.5"}},
		}}},
		{"compose(compose(pin,lane),vrt@x)", Spec{ID: Compose, Parts: []Spec{
			{ID: Compose, Parts: []Spec{{ID: "pin"}, {ID: "lane"}}},
			{ID: "vrt", Org: "x"},
		}}},
	}
	for _, c := range cases {
		got, err := Parse(c.in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.in, err)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Fatalf("Parse(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
}

// TestParseErrors rejects every malformed shape the grammar rules out.
func TestParseErrors(t *testing.T) {
	for _, in := range []string{
		"",
		"@ddr4x16",
		"pair@",
		"pair:spare",
		"pair:=3",
		"pair:a=1,a=2",
		"pair:spare=3:7",
		":pop=1",
		"retention:pop",
		"retention:=1",
		"retention:pop=1,pop=2",
		"a:k=v:w",
		"compose",
		"compose:k=1",
		"compose@x",
		"compose()",
		"compose(pin",
		"compose(pin))",
		"pin)",
		"(pin)",
		"compose(pin,)",
		"compose(compose)",
		"compose(pin@)",
		":policy=open",
		"ddr5-4800:policy=open:channels=2",
		"ddr5-4800:policy",
		"ddr5-4800:=open",
		"ddr5-4800:policy=open,policy=closed",
	} {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) accepted", in)
		}
	}
}

// TestCanonicalString pins the canonical form of representative specs
// and checks that parsing the canonical form gives it back byte for
// byte, since campaign labels embed these strings.
func TestCanonicalString(t *testing.T) {
	cases := []struct {
		spec, canonical string
	}{
		{"pair@ddr5x16:lat=2.5,exp=4", "pair@ddr5x16:exp=4,lat=2.5"},
		{"pin", "pin"},
		{"pinburst:b=4", "pinburst:b=4"},
		{"retention:pop=1e-6,cluster=2.5", "retention:cluster=2.5,pop=1e-6"},
		{"rowhammer:radius=1,rate=0.3", "rowhammer:radius=1,rate=0.3"},
		{"vrt:flicker=0.2", "vrt:flicker=0.2"},
		{"chipkill:chips=2", "chipkill:chips=2"},
		{"inherent:ber=1e-4", "inherent:ber=1e-4"},
		{"compose(pin,inherent:ber=1e-5)", "compose(pin,inherent:ber=1e-5)"},
		{"compose(retention:pop=1e-6,cluster=2.5,pin)", "compose(retention:cluster=2.5,pop=1e-6,pin)"},
		{"compose(compose(pin,lane),vrt:flicker=0.5)", "compose(compose(pin,lane),vrt:flicker=0.5)"},
		{"ddr4-2400", "ddr4-2400"},
		{"ddr5-4800:policy=closed", "ddr5-4800:policy=closed"},
		{"ddr5-4800:policy=closed,channels=2", "ddr5-4800:channels=2,policy=closed"},
		{"x:b=2,a=1", "x:a=1,b=2"},
	}
	for _, c := range cases {
		s, err := Parse(c.spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.spec, err)
		}
		if got := s.String(); got != c.canonical {
			t.Fatalf("canonical of %q = %q, want %q", c.spec, got, c.canonical)
		}
		again, err := Parse(c.canonical)
		if err != nil {
			t.Fatalf("reparse canonical %q: %v", c.canonical, err)
		}
		if got := again.String(); got != c.canonical {
			t.Fatalf("parse∘canonical not identity: %q -> %q", c.canonical, got)
		}
	}
}

// TestSplitList exercises the list splitting rules: whitespace always
// separates, commas separate unless continuing an option list or inside
// compose parentheses.
func TestSplitList(t *testing.T) {
	cases := []struct {
		list string
		want []string
	}{
		{"pin,retention:pop=1e-5,cluster=2 compose(pin,vrt:flicker=0.5),lane",
			[]string{"pin", "retention:pop=1e-5,cluster=2", "compose(pin,vrt:flicker=0.5)", "lane"}},
		{"pinburst:b=4,beatburst:b=2", []string{"pinburst:b=4", "beatburst:b=2"}},
		{"pair@ddr5x16,pair:spare=3.7,chip=1,iecc", []string{"pair@ddr5x16", "pair:spare=3.7,chip=1", "iecc"}},
		{"pair:exp=4,pair:lat=5", []string{"pair:exp=4", "pair:lat=5"}},
		{"pair:spare=3.7\tduo", []string{"pair:spare=3.7", "duo"}},
	}
	for _, c := range cases {
		got, err := SplitList(c.list)
		if err != nil {
			t.Fatalf("SplitList(%q): %v", c.list, err)
		}
		if !slices.Equal(got, c.want) {
			t.Fatalf("SplitList(%q) = %q, want %q", c.list, got, c.want)
		}
	}
	for _, list := range []string{"pin,compose(lane", "pin)", "pair,,iecc", "pair:a"} {
		if _, err := SplitList(list); err == nil {
			t.Errorf("SplitList(%q) accepted", list)
		}
	}
}

// FuzzParse is the parse-or-reject property of the grammar: no input
// may panic Parse or SplitList, and any spec Parse accepts satisfies
// parse∘canonical = identity.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"pin",
		"pinburst:b=4",
		"retention:pop=1e-6,cluster=2.5",
		"rowhammer:radius=1,rate=0.3",
		"vrt:flicker=0.2",
		"chipkill:chips=2",
		"inherent:ber=1e-4",
		"compose(pin,inherent:ber=1e-5)",
		"compose(compose(pin,lane),vrt)",
		"compose(retention:pop=1e-6,cluster=2.5,pin)",
		"compose",
		"compose()",
		"a:k=v:w",
		"a,b",
		"x:=",
		"((((",
		"ddr4-2400",
		"ddr5-4800:policy=closed,channels=2",
		"lpddr5-6400:refresh=all-bank",
		"a:b=c",
		":x=y",
		"p:k=v,k=v",
		"p:k=v:k=v",
		"pair@ddr5x16",
		"pair@ddr5x16:lat=2.5,exp=4",
		"compose(pin@x,vrt:flicker=0.5)",
		"a@b@c:k=v@w",
		"@",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		_, _ = SplitList(spec) // rejected is fine; panicking is not
		s, err := Parse(spec)
		if err != nil {
			return
		}
		canon := s.String()
		again, err := Parse(canon)
		if err != nil {
			t.Fatalf("canonical %q of accepted spec %q fails to reparse: %v", canon, spec, err)
		}
		if got := again.String(); got != canon {
			t.Fatalf("parse∘canonical not identity: %q reparsed to %q", canon, got)
		}
	})
}

func TestRegistry(t *testing.T) {
	r := New[int]("pkg", "thing")
	r.Add("b-2", 2)
	r.Add("a1", 1)
	if ids := r.IDs(); !slices.Equal(ids, []string{"b-2", "a1"}) {
		t.Fatalf("IDs() = %q, want registration order", ids)
	}
	if all := r.All(); !slices.Equal(all, []int{2, 1}) {
		t.Fatalf("All() = %v, want registration order", all)
	}
	r.IDs()[0] = "changed"
	if r.IDs()[0] != "b-2" {
		t.Fatal("IDs() shares the registry's slice")
	}
	if e, err := r.Lookup("a1"); err != nil || e != 1 {
		t.Fatalf("Lookup(a1) = %v, %v", e, err)
	}
	_, err := r.Lookup("zz")
	if want := `pkg: unknown thing "zz" (valid: b-2|a1)`; err == nil || err.Error() != want {
		t.Fatalf("Lookup(zz) error %v, want %q", err, want)
	}
	for _, id := range []string{"", "Upper", "a_b", "a b", "a@b", Compose, "b-2"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Add(%q) accepted", id)
				}
			}()
			r.Add(id, 0)
		}()
	}
	if n := len(r.IDs()); n != 2 {
		t.Fatalf("rejected IDs were registered: %q", r.IDs())
	}
}

func TestCheckOptions(t *testing.T) {
	r := New[int]("pkg", "thing")
	docs := []OptionDoc{{Key: "b"}, {Key: "a"}}
	for _, opts := range []map[string]string{nil, {"a": "1"}, {"a": "", "b": "2"}} {
		if err := r.CheckOptions("x", docs, opts); err != nil {
			t.Fatalf("CheckOptions(%v): %v", opts, err)
		}
	}
	err := r.CheckOptions("x", docs, map[string]string{"z": "", "c": "", "a": ""})
	if want := `pkg: thing "x" does not accept option(s) c,z (valid: b|a)`; err == nil || err.Error() != want {
		t.Fatalf("unknown keys: error %v, want %q", err, want)
	}
	err = r.CheckOptions("x", nil, map[string]string{"k": "v"})
	if want := `pkg: thing "x" takes no options, got k`; err == nil || err.Error() != want {
		t.Fatalf("option-less entry: error %v, want %q", err, want)
	}
}
