package directory

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func seed(t *testing.T) *Dir {
	t.Helper()
	d := New()
	add := func(uid, pairing, class string) {
		err := d.Add(UserDN(uid), map[string][]string{
			"uid":         {uid},
			"objectClass": {"person", class},
			"mfaPairing":  {pairing},
			"mail":        {uid + "@hpc.example"},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	add("cproctor", "soft", "staff")
	add("storm", "sms", "staff")
	add("hanlon", "hard", "staff")
	add("gateway1", "none", "gateway")
	if err := d.Add("ou=people,dc=hpc,dc=example", map[string][]string{"ou": {"people"}}); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestAddLookupDelete(t *testing.T) {
	d := seed(t)
	e, err := d.Lookup(UserDN("cproctor"))
	if err != nil {
		t.Fatal(err)
	}
	if e.Get("mfaPairing") != "soft" {
		t.Fatalf("mfaPairing = %q", e.Get("mfaPairing"))
	}
	if err := d.Add(UserDN("cproctor"), nil); err != ErrExists {
		t.Fatalf("duplicate add: %v", err)
	}
	if err := d.Delete(UserDN("cproctor")); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Lookup(UserDN("cproctor")); err != ErrNoEntry {
		t.Fatalf("after delete: %v", err)
	}
	if err := d.Delete(UserDN("cproctor")); err != ErrNoEntry {
		t.Fatalf("double delete: %v", err)
	}
	if err := d.Add("", nil); err != ErrBadDN {
		t.Fatalf("empty DN: %v", err)
	}
}

func TestLookupIsCaseInsensitiveOnDN(t *testing.T) {
	d := seed(t)
	e, err := d.Lookup("UID=CPROCTOR, OU=People, DC=hpc, DC=example")
	if err != nil {
		t.Fatal(err)
	}
	if e.Get("uid") != "cproctor" {
		t.Fatal("wrong entry")
	}
}

func TestModify(t *testing.T) {
	d := seed(t)
	// The portal flips a user's pairing type after (un)pairing.
	if err := d.Modify(UserDN("storm"), map[string][]string{"mfaPairing": {"soft"}}); err != nil {
		t.Fatal(err)
	}
	e, _ := d.Lookup(UserDN("storm"))
	if e.Get("mfaPairing") != "soft" {
		t.Fatal("modify did not stick")
	}
	// Empty slice deletes the attribute.
	if err := d.Modify(UserDN("storm"), map[string][]string{"mail": nil}); err != nil {
		t.Fatal(err)
	}
	e, _ = d.Lookup(UserDN("storm"))
	if e.Get("mail") != "" {
		t.Fatal("attribute not deleted")
	}
	if err := d.Modify(UserDN("ghost"), nil); err != ErrNoEntry {
		t.Fatalf("modify missing: %v", err)
	}
}

func TestLookupReturnsCopy(t *testing.T) {
	d := seed(t)
	e, _ := d.Lookup(UserDN("hanlon"))
	e.Attrs["mfapairing"][0] = "tampered"
	e2, _ := d.Lookup(UserDN("hanlon"))
	if e2.Get("mfaPairing") != "hard" {
		t.Fatal("mutation leaked into the directory")
	}
}

// TestAttrMatchesLookup: Attr reads what Lookup's copy would show, for a
// present attribute, an absent one and an absent entry.
func TestAttrMatchesLookup(t *testing.T) {
	d := seed(t)
	for _, c := range []struct{ dn, attr string }{
		{UserDN("storm"), "mfaPairing"},
		{" UID=Storm , ou=people,dc=hpc,dc=example", "MFAPAIRING"},
		{UserDN("storm"), "telephoneNumber"},
		{"ou=people,dc=hpc,dc=example", "mfapairing"},
	} {
		e, err := d.Lookup(c.dn)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := d.Attr(c.dn, c.attr); err != nil || got != e.Get(c.attr) {
			t.Errorf("Attr(%q, %q) = %q, %v; Lookup shows %q", c.dn, c.attr, got, err, e.Get(c.attr))
		}
	}
	if _, err := d.Attr(UserDN("ghost"), "mfapairing"); err != ErrNoEntry {
		t.Errorf("Attr on a missing entry: err = %v, want ErrNoEntry", err)
	}
}

func mustFilter(t *testing.T, s string) Filter {
	t.Helper()
	f, err := ParseFilter(s)
	if err != nil {
		t.Fatalf("ParseFilter(%q): %v", s, err)
	}
	return f
}

func TestSearchEquality(t *testing.T) {
	d := seed(t)
	got := d.Search(PeopleBase, ScopeSub, mustFilter(t, "(uid=storm)"), nil)
	if len(got) != 1 || got[0].Get("uid") != "storm" {
		t.Fatalf("got %d entries", len(got))
	}
	// Equality is case-insensitive like LDAP's default matching rule.
	got = d.Search(PeopleBase, ScopeSub, mustFilter(t, "(uid=STORM)"), nil)
	if len(got) != 1 {
		t.Fatal("case-insensitive match failed")
	}
}

func TestSearchCompound(t *testing.T) {
	d := seed(t)
	got := d.Search(PeopleBase, ScopeSub,
		mustFilter(t, "(&(objectClass=staff)(!(mfaPairing=none)))"), nil)
	if len(got) != 3 {
		t.Fatalf("AND/NOT: got %d entries, want 3", len(got))
	}
	got = d.Search(PeopleBase, ScopeSub,
		mustFilter(t, "(|(mfaPairing=soft)(mfaPairing=hard))"), nil)
	if len(got) != 2 {
		t.Fatalf("OR: got %d entries, want 2", len(got))
	}
}

func TestSearchPresenceAndSubstring(t *testing.T) {
	d := seed(t)
	got := d.Search(PeopleBase, ScopeSub, mustFilter(t, "(mfaPairing=*)"), nil)
	if len(got) != 4 {
		t.Fatalf("presence: got %d, want 4", len(got))
	}
	got = d.Search(PeopleBase, ScopeSub, mustFilter(t, "(uid=c*)"), nil)
	if len(got) != 1 || got[0].Get("uid") != "cproctor" {
		t.Fatalf("prefix: got %d", len(got))
	}
	got = d.Search(PeopleBase, ScopeSub, mustFilter(t, "(mail=*@hpc.example)"), nil)
	if len(got) != 4 {
		t.Fatalf("suffix: got %d, want 4", len(got))
	}
	got = d.Search(PeopleBase, ScopeSub, mustFilter(t, "(uid=*an*)"), nil)
	if len(got) != 1 || got[0].Get("uid") != "hanlon" {
		t.Fatalf("middle: got %d", len(got))
	}
	got = d.Search(PeopleBase, ScopeSub, mustFilter(t, "(uid=c*or)"), nil)
	if len(got) != 1 {
		t.Fatalf("initial+final: got %d", len(got))
	}
}

func TestSearchScopes(t *testing.T) {
	d := seed(t)
	// Base scope on the OU returns only the OU entry.
	got := d.Search(PeopleBase, ScopeBase, nil, nil)
	if len(got) != 1 || got[0].DN != NormalizeDN(PeopleBase) {
		t.Fatalf("base scope: %v", got)
	}
	// One level: the four users.
	got = d.Search(PeopleBase, ScopeOne, nil, nil)
	if len(got) != 4 {
		t.Fatalf("one scope: %d", len(got))
	}
	// Sub: OU + users.
	got = d.Search(PeopleBase, ScopeSub, nil, nil)
	if len(got) != 5 {
		t.Fatalf("sub scope: %d", len(got))
	}
	// Results are DN-sorted.
	for i := 1; i < len(got); i++ {
		if got[i-1].DN > got[i].DN {
			t.Fatal("results not sorted")
		}
	}
}

func TestSearchAttrProjection(t *testing.T) {
	d := seed(t)
	got := d.Search(PeopleBase, ScopeSub, mustFilter(t, "(uid=storm)"), []string{"mfaPairing"})
	if len(got) != 1 {
		t.Fatal("no result")
	}
	if got[0].Get("mfaPairing") != "sms" {
		t.Fatal("projected attr missing")
	}
	if got[0].Get("mail") != "" {
		t.Fatal("unprojected attr leaked")
	}
}

func TestParseFilterErrors(t *testing.T) {
	bad := []string{
		"", "uid=x", "(uid=x", "(&)", "(|)", "((uid=x))",
		"(!(uid=x)", "(=x)", "(uid=x))", "(uid=x)(a=b)",
	}
	for _, s := range bad {
		if _, err := ParseFilter(s); err == nil {
			t.Errorf("ParseFilter(%q) succeeded, want error", s)
		}
	}
}

func TestFilterString(t *testing.T) {
	for _, s := range []string{
		"(uid=x)", "(uid=*)", "(&(a=1)(b=2))", "(|(a=1)(!(b=2)))", "(uid=a*b*c)",
	} {
		f := mustFilter(t, s)
		// Round-trip: parse(f.String()) matches the same entries.
		if _, err := ParseFilter(f.String()); err != nil {
			t.Errorf("String() of %q is unparseable: %q", s, f.String())
		}
	}
}

func TestClientServerEndToEnd(t *testing.T) {
	d := seed(t)
	srv := NewServer(d)
	if err := srv.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := &Client{Addr: srv.Addr().String()}

	// The PAM token module's actual query: pairing type for a user.
	entries, err := c.Search(PeopleBase, ScopeSub, "(uid=storm)", []string{"mfaPairing"})
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Get("mfaPairing") != "sms" {
		t.Fatalf("search via client = %+v", entries)
	}

	// Lookup.
	e, err := c.Lookup(UserDN("hanlon"))
	if err != nil {
		t.Fatal(err)
	}
	if e.Get("mfaPairing") != "hard" {
		t.Fatal("lookup mismatch")
	}

	// Add + modify + delete.
	if err := c.Add(UserDN("newuser"), map[string][]string{"uid": {"newuser"}, "mfaPairing": {"none"}}); err != nil {
		t.Fatal(err)
	}
	if err := c.Modify(UserDN("newuser"), map[string][]string{"mfaPairing": {"soft"}}); err != nil {
		t.Fatal(err)
	}
	e, err = c.Lookup(UserDN("newuser"))
	if err != nil || e.Get("mfaPairing") != "soft" {
		t.Fatalf("modify via client: %v %v", e, err)
	}
	if err := c.Delete(UserDN("newuser")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Lookup(UserDN("newuser")); err == nil {
		t.Fatal("entry survived delete")
	}
}

func TestClientServerErrors(t *testing.T) {
	d := seed(t)
	srv := NewServer(d)
	if err := srv.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := &Client{Addr: srv.Addr().String()}
	if _, err := c.Lookup(UserDN("nobody")); err == nil {
		t.Fatal("lookup of missing entry succeeded")
	}
	if _, err := c.Search(PeopleBase, ScopeSub, "(((", nil); err == nil {
		t.Fatal("bad filter accepted")
	}
	if err := c.Add(UserDN("cproctor"), nil); err == nil {
		t.Fatal("duplicate add via client succeeded")
	}
	// Dead server.
	bad := &Client{Addr: "127.0.0.1:1"}
	if _, err := bad.Lookup("x"); err == nil {
		t.Fatal("dead server lookup succeeded")
	}
}

func TestNormalizeDN(t *testing.T) {
	if NormalizeDN("UID=A, OU=B") != "uid=a,ou=b" {
		t.Fatalf("got %q", NormalizeDN("UID=A, OU=B"))
	}
}

// Property: every entry added under the people base is findable by uid
// equality filter.
func TestAddSearchProperty(t *testing.T) {
	f := func(ids []uint16) bool {
		d := New()
		seen := map[string]bool{}
		for _, id := range ids {
			uid := fmt.Sprintf("user%d", id)
			if seen[uid] {
				continue
			}
			seen[uid] = true
			if err := d.Add(UserDN(uid), map[string][]string{"uid": {uid}}); err != nil {
				return false
			}
		}
		for uid := range seen {
			flt, err := ParseFilter("(uid=" + uid + ")")
			if err != nil {
				return false
			}
			if len(d.Search(PeopleBase, ScopeSub, flt, nil)) != 1 {
				return false
			}
		}
		return d.Len() == len(seen)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: substring filters agree with strings.Contains for simple
// "*needle*" patterns.
func TestSubstringProperty(t *testing.T) {
	f := func(hay, needle string) bool {
		hay = strings.Map(keepSimple, hay)
		needle = strings.Map(keepSimple, needle)
		if needle == "" {
			return true
		}
		d := New()
		d.Add("uid=x,ou=people,dc=hpc,dc=example", map[string][]string{"v": {hay}})
		flt, err := ParseFilter("(v=*" + needle + "*)")
		if err != nil {
			return true // pattern chars stripped below make this rare
		}
		got := len(d.Search(PeopleBase, ScopeSub, flt, nil)) == 1
		want := strings.Contains(strings.ToLower(hay), strings.ToLower(needle))
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func keepSimple(r rune) rune {
	if r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' {
		return r
	}
	return -1
}

func BenchmarkSearchEquality(b *testing.B) {
	d := New()
	for i := 0; i < 10000; i++ {
		d.Add(UserDN(fmt.Sprintf("user%05d", i)), map[string][]string{
			"uid": {fmt.Sprintf("user%05d", i)}, "mfapairing": {"soft"}})
	}
	flt, _ := ParseFilter("(uid=user09999)")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(d.Search(PeopleBase, ScopeSub, flt, []string{"mfapairing"})) != 1 {
			b.Fatal("miss")
		}
	}
}
