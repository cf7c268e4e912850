package directory

import (
	"fmt"
	"testing"
	"testing/quick"
)

func seed(t *testing.T) *Dir {
	t.Helper()
	d := New()
	add := func(uid, pairing, class string) {
		err := d.Add(uid, map[string][]string{
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
	return d
}

// TestAddAttr: Attr reads back the first value of an added attribute,
// whatever the case of its name; Add refuses a duplicate and an empty uid.
func TestAddAttr(t *testing.T) {
	d := seed(t)
	for _, c := range []struct{ uid, attr, want string }{
		{"storm", "mfaPairing", "sms"},
		{"hanlon", "mfapairing", "hard"},
		{"cproctor", "objectclass", "person"},
	} {
		if got, err := d.Attr(c.uid, c.attr); err != nil || got != c.want {
			t.Errorf("Attr(%q, %q) = %q, %v; want %q", c.uid, c.attr, got, err, c.want)
		}
	}
	if err := d.Add("cproctor", nil); err != ErrExists {
		t.Fatalf("duplicate add: %v", err)
	}
	if err := d.Add("", nil); err != ErrBadUID {
		t.Fatalf("empty uid: %v", err)
	}
}

// TestAttrAbsent: an absent attribute reads "" with no error, an absent
// entry reads ErrNoEntry.
func TestAttrAbsent(t *testing.T) {
	d := seed(t)
	if got, err := d.Attr("storm", "telephoneNumber"); err != nil || got != "" {
		t.Errorf("Attr(storm, telephoneNumber) = %q, %v; want \"\", nil", got, err)
	}
	if _, err := d.Attr("ghost", "mfapairing"); err != ErrNoEntry {
		t.Errorf("Attr on a missing entry: err = %v, want ErrNoEntry", err)
	}
}

// TestUIDKeying: the uid is normalised as internal/idm normalises account
// names — lowercased and nothing else — so case folds onto one entry but
// spaces and commas keep distinct accounts apart.
func TestUIDKeying(t *testing.T) {
	d := seed(t)
	if p, err := d.Attr("CProctor", "MFAPAIRING"); err != nil || p != "soft" {
		t.Fatalf("Attr(CProctor) = %q, %v", p, err)
	}
	if err := d.Add("STORM", nil); err != ErrExists {
		t.Fatalf("Add(STORM) = %v, want ErrExists", err)
	}
	if err := d.Add("a,b", map[string][]string{"mfapairing": {"soft"}}); err != nil {
		t.Fatal(err)
	}
	if err := d.Add("a, b", map[string][]string{"mfapairing": {"none"}}); err != nil {
		t.Fatalf("Add(%q) = %v: distinct uids share an entry", "a, b", err)
	}
	if err := d.Modify(" a, b ", map[string][]string{"mfapairing": {"hard"}}); err != ErrNoEntry {
		t.Fatalf("Modify with padded uid = %v, want ErrNoEntry", err)
	}
	for uid, want := range map[string]string{"a,b": "soft", "a, b": "none"} {
		if p, _ := d.Attr(uid, "mfapairing"); p != want {
			t.Errorf("Attr(%q) = %q, want %q", uid, p, want)
		}
	}
}

func TestModify(t *testing.T) {
	d := seed(t)
	// The portal flips a user's pairing type after (un)pairing.
	if err := d.Modify("storm", map[string][]string{"mfaPairing": {"soft"}}); err != nil {
		t.Fatal(err)
	}
	if p, _ := d.Attr("storm", "mfaPairing"); p != "soft" {
		t.Fatal("modify did not stick")
	}
	// Empty slice deletes the attribute.
	if err := d.Modify("storm", map[string][]string{"mail": nil}); err != nil {
		t.Fatal(err)
	}
	if m, _ := d.Attr("storm", "mail"); m != "" {
		t.Fatal("attribute not deleted")
	}
	if err := d.Modify("ghost", nil); err != ErrNoEntry {
		t.Fatalf("modify missing: %v", err)
	}
}

// TestAddCopiesValues: the caller's value slices stay the caller's.
func TestAddCopiesValues(t *testing.T) {
	d := New()
	attrs := map[string][]string{"mfapairing": {"hard"}}
	if err := d.Add("hanlon", attrs); err != nil {
		t.Fatal(err)
	}
	attrs["mfapairing"][0] = "tampered"
	if err := d.Modify("hanlon", attrs); err != nil {
		t.Fatal(err)
	}
	attrs["mfapairing"][0] = "none"
	if p, _ := d.Attr("hanlon", "mfapairing"); p != "tampered" {
		t.Fatalf("mfapairing = %q: a caller's slice is aliased", p)
	}
}

// Property: every added uid reads back its own entry.
func TestAddAttrProperty(t *testing.T) {
	f := func(ids []uint16) bool {
		d := New()
		seen := map[string]bool{}
		for _, id := range ids {
			uid := fmt.Sprintf("user%d", id)
			if seen[uid] {
				continue
			}
			seen[uid] = true
			if err := d.Add(uid, map[string][]string{"uid": {uid}}); err != nil {
				return false
			}
		}
		for uid := range seen {
			if got, err := d.Attr(uid, "uid"); err != nil || got != uid {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
