package jobs

import (
	"os"
	"strings"
	"testing"
)

func TestParseSpecStrict(t *testing.T) {
	cases := []struct {
		name, body, wantErr string
	}{
		{"unknown field", `{"workloads":["high-faa"],"bogus":1}`, "bogus"},
		{"trailing garbage", `{"workloads":["high-faa"]} {"again":true}`, "trailing"},
		{"nested unknown field", `{"workloadSpec":{"name":"x","nope":1}}`, "nope"},
		{"not json", `hello`, "parsing"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := ParseSpec([]byte(c.body)); err == nil {
				t.Fatalf("ParseSpec(%s) = nil error, want %q", c.body, c.wantErr)
			} else if !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("ParseSpec(%s) error = %v, want substring %q", c.body, err, c.wantErr)
			}
		})
	}
	if _, err := ParseSpec([]byte(`{"workloads":["high-faa"],"quick":true}`)); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
}

func mustID(t *testing.T, body string) string {
	t.Helper()
	s, err := ParseSpec([]byte(body))
	if err != nil {
		t.Fatalf("ParseSpec(%s): %v", body, err)
	}
	id, err := s.ID()
	if err != nil {
		t.Fatalf("ID(%s): %v", body, err)
	}
	return id
}

func TestJobIDCanonical(t *testing.T) {
	base := mustID(t, `{"workloads":["high-faa"],"quick":true}`)

	// Content-addressing: every spelling of the same work is one job.
	same := []struct{ name, body string }{
		{"explicit default seed", `{"workloads":["high-faa"],"quick":true,"seed":42}`},
		{"explicit default machines", `{"machines":["XeonE5","KNL"],"workloads":["high-faa"],"quick":true}`},
		{"machine name case", `{"machines":["xeone5","knl"],"workloads":["high-faa"],"quick":true}`},
		{"deadline is policy, not identity", `{"workloads":["high-faa"],"quick":true,"deadlineMS":5000}`},
	}
	for _, c := range same {
		if got := mustID(t, c.body); got != base {
			t.Errorf("%s: ID %s != base %s (must deduplicate)", c.name, got, base)
		}
	}

	// Any knob that changes the result changes the identity.
	diff := []struct{ name, body string }{
		{"seed", `{"workloads":["high-faa"],"quick":true,"seed":7}`},
		{"quick", `{"workloads":["high-faa"]}`},
		{"metrics", `{"workloads":["high-faa"],"quick":true,"metrics":true}`},
		{"check", `{"workloads":["high-faa"],"quick":true,"check":true}`},
		{"workload", `{"workloads":["low-faa"],"quick":true}`},
		{"machines", `{"machines":["KNL"],"workloads":["high-faa"],"quick":true}`},
		{"fleet", `{"workloads":["high-faa"],"quick":true,"fleet":true}`},
	}
	for _, c := range diff {
		if got := mustID(t, c.body); got == base {
			t.Errorf("%s: ID unchanged (%s); distinct work must get a distinct job", c.name, got)
		}
	}

	if id2 := mustID(t, `{"workloads":["high-faa"],"quick":true}`); id2 != base {
		t.Errorf("ID not deterministic: %s then %s", base, id2)
	}
}

func TestResolveValidation(t *testing.T) {
	cases := []struct {
		name, body, wantErr string
	}{
		{"no workloads", `{"quick":true}`, "at least one workload"},
		{"unknown workload", `{"workloads":["nope"]}`, "unknown workload"},
		{"unknown machine", `{"machines":["nope"],"workloads":["high-faa"]}`, "unknown machine"},
		{"knee without fleet", `{"workloads":["high-faa"],"knee":0.5}`, "fleet option"},
		{"knee out of range", `{"workloads":["high-faa"],"fleet":true,"knee":1.5}`, "knee"},
		{"negative deadline", `{"workloads":["high-faa"],"deadlineMS":-1}`, "deadlineMS"},
		{"workload twice", `{"workloads":["high-faa","high-faa"],"machines":["XeonE5"],"quick":true}`, "selected twice"},
		{"machine twice by case", `{"machines":["XeonE5","xeone5"],"workloads":["high-faa"],"quick":true}`, "selected twice"},
		{"machine twice by alias", `{"machines":["xeon","XeonE5"],"workloads":["high-faa"]}`, "selected twice"},
		{"app twice", `{"apps":["treiber","Treiber"]}`, "selected twice"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s, err := ParseSpec([]byte(c.body))
			if err != nil {
				t.Fatalf("ParseSpec: %v", err)
			}
			if err := s.Validate(); err == nil {
				t.Fatalf("Validate(%s) = nil, want %q", c.body, c.wantErr)
			} else if !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("Validate(%s) = %v, want substring %q", c.body, err, c.wantErr)
			}
		})
	}
}

func TestResolveDefaults(t *testing.T) {
	s, err := ParseSpec([]byte(`{"workloads":["high-faa"]}`))
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if r.Seed != DefaultSeed {
		t.Errorf("default seed = %d, want %d", r.Seed, DefaultSeed)
	}
	if len(r.Machines) != 2 {
		t.Errorf("default machines = %d, want the paper pair", len(r.Machines))
	}

	fleet, err := ParseSpec([]byte(`{"workloads":["high-faa"],"fleet":true}`))
	if err != nil {
		t.Fatal(err)
	}
	fr, err := fleet.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if len(fr.Machines) <= len(r.Machines) {
		t.Errorf("fleet default machines = %d, want the whole registry (> %d)", len(fr.Machines), len(r.Machines))
	}
}

// FuzzJobSpecLoad fuzzes the submit path's parser the way a hostile or
// confused client exercises it: arbitrary bytes must produce either a
// clean error or a spec whose validation and identity derivation never
// panic, and the identity must be deterministic.
func FuzzJobSpecLoad(f *testing.F) {
	f.Add([]byte(`{"workloads":["high-faa"],"quick":true}`))
	f.Add([]byte(`{"machines":["KNL"],"workloadSpec":{"name":"w","primitive":"CAS","casRetryLoop":true,"threadLadder":[1,4]},"seed":7}`))
	f.Add([]byte(`{"fleet":true,"knee":0.8,"workloads":["high-faa","low-faa"]}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`[`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseSpec(data)
		if err != nil {
			return
		}
		id1, err1 := s.ID()
		id2, err2 := s.ID()
		if (err1 == nil) != (err2 == nil) || id1 != id2 {
			t.Fatalf("ID not deterministic: (%q, %v) then (%q, %v)", id1, err1, id2, err2)
		}
		if err1 == nil && (len(id1) < 2 || id1[0] != 'j') {
			t.Fatalf("malformed job ID %q", id1)
		}
	})
}

func TestJobAppSpecs(t *testing.T) {
	// An apps-only job is valid; its identity carries the app digest.
	appOnly := mustID(t, `{"apps":["treiber"],"quick":true}`)
	if other := mustID(t, `{"apps":["ws-deque"],"quick":true}`); other == appOnly {
		t.Errorf("distinct apps share job ID %s", appOnly)
	}
	// Adding an app to a workload job changes its identity; the
	// workload-only identity itself is untouched by the apps field
	// (omitempty), so pre-apps journaled IDs stay valid.
	wlOnly := mustID(t, `{"workloads":["high-faa"],"quick":true}`)
	if both := mustID(t, `{"workloads":["high-faa"],"apps":["treiber"],"quick":true}`); both == wlOnly {
		t.Errorf("app payload did not change the job ID %s", wlOnly)
	}

	// Inline app specs resolve and validate like inline workloads.
	s, err := ParseSpec([]byte(`{"appSpec":{"structure":"counter-faa","threads":4}}`))
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.AppSpecs) != 1 || len(r.Specs) != 0 {
		t.Fatalf("resolved %d app specs / %d workload specs, want 1/0", len(r.AppSpecs), len(r.Specs))
	}

	bad := []struct{ name, body, wantErr string }{
		{"unknown app", `{"apps":["nope"]}`, "unknown app"},
		{"fleet needs workloads", `{"apps":["treiber"],"fleet":true}`, "apps-only"},
		{"invalid inline app", `{"appSpec":{"structure":"counter-faa","threads":4,"stripes":8}}`, "stripes"},
		{"nested unknown app field", `{"appSpec":{"structure":"counter-faa","threads":4,"nope":1}}`, "nope"},
	}
	for _, c := range bad {
		t.Run(c.name, func(t *testing.T) {
			s, err := ParseSpec([]byte(c.body))
			if err == nil {
				err = s.Validate()
			}
			if err == nil {
				t.Fatalf("%s accepted, want error %q", c.body, c.wantErr)
			} else if !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("error = %v, want substring %q", err, c.wantErr)
			}
		})
	}
}

// TestJobIDPinned pins the literal job IDs of a spread of requests.
// A job ID keys the journal and the result store, so a change to how
// specs resolve must not silently re-key jobs a daemon has already
// journaled: if this test fails, the identity derivation changed.
func TestJobIDPinned(t *testing.T) {
	inline := func(path string) string {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	epyc := inline("../../examples/machines/epyc.json")
	cohort := inline("../../examples/apps/cohort-lock.json")
	cases := []struct{ name, body, id string }{
		{"workloads only", `{"workloads":["high-faa","low-faa"],"quick":true}`, "jf585de5c48817af5"},
		{"apps only", `{"apps":["treiber"],"quick":true}`, "jfa278da995cc4f07"},
		{"workloads and apps", `{"workloads":["high-faa"],"apps":["treiber","ticket-lock"],"quick":true}`, "jc4c0a04ec2f1df1a"},
		{"fleet with knee", `{"workloads":["high-faa","read-mix"],"fleet":true,"knee":0.8,"quick":true}`, "jcd59e0c0d5d2eb1d"},
		{"fleet default machines", `{"workloads":["high-faa"],"fleet":true}`, "j76180814b52505d5"},
		{"machine aliases and case", `{"machines":["xeon","KNL","rome","ARM"],"workloads":["high-faa"],"seed":7}`, "jd5d92a715fc9e34e"},
		{"inline machine", `{"machines":["XeonE5"],"machineSpec":` + epyc + `,"workloads":["high-faa"],"quick":true}`, "jb2232fade3958e12"},
		{"inline workload", `{"workloads":["high-faa"],"workloadSpec":{"name":"w","primitive":"CAS","casRetryLoop":true,"threadLadder":[1,4]},"quick":true,"metrics":true}`, "jef01a017f6baab2f"},
		{"inline app", `{"machines":["EPYC"],"apps":["treiber"],"appSpec":` + cohort + `,"quick":true,"check":true}`, "j1dd618c3f2c93d90"},
	}
	for _, c := range cases {
		if got := mustID(t, c.body); got != c.id {
			t.Errorf("%s: ID %s, pinned %s", c.name, got, c.id)
		}
	}
}
