package server

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"redcane/internal/experiments"
	"redcane/internal/obs"
)

// postJobAs submits a job with an API key (Bearer header).
func postJobAs(t *testing.T, ts *httptest.Server, key, body string) (JobStatus, *http.Response) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if key != "" {
		req.Header.Set("Authorization", "Bearer "+key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if resp.StatusCode == http.StatusCreated {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return st, resp
}

func TestNewAuthValidation(t *testing.T) {
	cases := []struct {
		name    string
		tenants []Tenant
		wantErr string
	}{
		{"empty", nil, "no tenants"},
		{"missing name", []Tenant{{Key: "k"}}, "name and a key"},
		{"missing key", []Tenant{{Name: "a"}}, "name and a key"},
		{"negative limits", []Tenant{{Name: "a", Key: "k", MaxQueued: -1}}, "negative limits"},
		{"dup name", []Tenant{{Name: "a", Key: "k1"}, {Name: "a", Key: "k2"}}, "duplicate tenant name"},
		{"dup key", []Tenant{{Name: "a", Key: "k"}, {Name: "b", Key: "k"}}, "duplicate API key"},
	}
	for _, tc := range cases {
		if _, err := NewAuth(tc.tenants); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.wantErr)
		}
	}
	a, err := NewAuth([]Tenant{{Name: "alice", Key: "ka"}, {Name: "bob", Key: "kb", MaxQueued: 2, RatePerMin: 10}})
	if err != nil {
		t.Fatal(err)
	}
	if tn, err := a.Authenticate("kb"); err != nil || tn.Name != "bob" || tn.MaxQueued != 2 {
		t.Fatalf("Authenticate(kb) = %+v, %v", tn, err)
	}
	if _, err := a.Authenticate(""); err != ErrUnauthorized {
		t.Fatalf("empty key: err = %v", err)
	}
	if _, err := a.Authenticate("nope"); err != ErrUnauthorized {
		t.Fatalf("unknown key: err = %v", err)
	}
}

func TestLoadKeys(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "keys.json")
	good := `{"tenants":[{"name":"alice","key":"ka","max_queued":3,"rate_per_min":60}]}`
	if err := os.WriteFile(path, []byte(good), 0o644); err != nil {
		t.Fatal(err)
	}
	a, err := LoadKeys(path)
	if err != nil {
		t.Fatal(err)
	}
	if tn, err := a.Authenticate("ka"); err != nil || tn.Name != "alice" || tn.RatePerMin != 60 {
		t.Fatalf("loaded tenant = %+v, %v", tn, err)
	}

	// Typos in the keys file must fail loudly, not silently drop limits.
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"tenants":[{"name":"a","key":"k","rate_per_minute":5}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadKeys(bad); err == nil {
		t.Fatal("unknown field in keys file did not error")
	}
	if _, err := LoadKeys(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing keys file did not error")
	}
}

func TestAuthRateBucket(t *testing.T) {
	a, err := NewAuth([]Tenant{{Name: "a", Key: "k", RatePerMin: 2}, {Name: "b", Key: "free"}})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(1000, 0)
	a.now = func() time.Time { return now }

	// Burst = RatePerMin, then the bucket is dry.
	if !a.allow("k") || !a.allow("k") {
		t.Fatal("burst submissions rejected")
	}
	if a.allow("k") {
		t.Fatal("over-rate submission allowed")
	}
	// Half a minute refills one token at 2/min.
	now = now.Add(30 * time.Second)
	if !a.allow("k") {
		t.Fatal("refilled token rejected")
	}
	if a.allow("k") {
		t.Fatal("second token allowed after a single refill")
	}
	// A long idle stretch caps at the burst, not unbounded credit.
	now = now.Add(time.Hour)
	if !a.allow("k") || !a.allow("k") {
		t.Fatal("post-idle burst rejected")
	}
	if a.allow("k") {
		t.Fatal("idle stretch minted more than the burst")
	}
	// Unlimited tenants always pass; unknown keys never do.
	for i := 0; i < 50; i++ {
		if !a.allow("free") {
			t.Fatal("unlimited tenant throttled")
		}
	}
	if a.allow("ghost") {
		t.Fatal("unknown key allowed")
	}
}

func TestMetricLabelSanitizes(t *testing.T) {
	cases := map[string]string{
		"alice":                  "alice",
		"team-7.eu":              "team-7.eu",
		"a b/c{d}":               "a_b_c_d_",
		strings.Repeat("x", 100): strings.Repeat("x", 48),
	}
	for in, want := range cases {
		if got := metricLabel(in); got != want {
			t.Errorf("metricLabel(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestKeyedServerAuthAndQuotas(t *testing.T) {
	auth, err := NewAuth([]Tenant{
		{Name: "alice", Key: "ka", MaxQueued: 1},
		{Name: "bob", Key: "kb", RatePerMin: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(1000, 0)
	auth.now = func() time.Time { return now }

	release := make(chan struct{})
	blocking := func(ctx context.Context, spec JobSpec, jobDir string, o *obs.Obs) (Artifacts, error) {
		select {
		case <-release:
			return Artifacts{Text: "ok"}, nil
		case <-ctx.Done():
			return Artifacts{}, ctx.Err()
		}
	}
	s, ts := newTestServer(t, Config{Auth: auth, Slots: 1, QueueCap: 8}, blocking)
	defer close(release)

	// No key, bad key: the keyed server turns submissions away with 401.
	if _, resp := postJob(t, ts, `{"kind":"group-sweep"}`); resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("anonymous submit on keyed server: HTTP %d", resp.StatusCode)
	}
	if _, resp := postJobAs(t, ts, "wrong", `{"kind":"group-sweep"}`); resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unknown key: HTTP %d", resp.StatusCode)
	}

	// X-API-Key works as the fallback credential.
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", strings.NewReader(`{"kind":"group-sweep"}`))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-API-Key", "ka")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var guard JobStatus
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("X-API-Key submit: HTTP %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&guard); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if guard.Tenant != "alice" {
		t.Fatalf("job tenant = %q, want alice", guard.Tenant)
	}
	waitState(t, ts, guard.ID, StateRunning)

	// alice's MaxQueued=1: one queued job fits, the next bounces with 429
	// while the server-wide queue still has room.
	if _, resp := postJobAs(t, ts, "ka", `{"kind":"group-sweep"}`); resp.StatusCode != http.StatusCreated {
		t.Fatalf("first queued job: HTTP %d", resp.StatusCode)
	}
	if _, resp := postJobAs(t, ts, "ka", `{"kind":"group-sweep"}`); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit: HTTP %d", resp.StatusCode)
	}

	// bob's RatePerMin=2: the burst admits two, the third is throttled,
	// and a minute of (fake) wall clock restores service.
	if _, resp := postJobAs(t, ts, "kb", `{"kind":"group-sweep"}`); resp.StatusCode != http.StatusCreated {
		t.Fatalf("bob submit 1: HTTP %d", resp.StatusCode)
	}
	if _, resp := postJobAs(t, ts, "kb", `{"kind":"group-sweep"}`); resp.StatusCode != http.StatusCreated {
		t.Fatalf("bob submit 2: HTTP %d", resp.StatusCode)
	}
	if _, resp := postJobAs(t, ts, "kb", `{"kind":"group-sweep"}`); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("bob over-rate submit: HTTP %d", resp.StatusCode)
	}
	now = now.Add(time.Minute)
	if _, resp := postJobAs(t, ts, "kb", `{"kind":"group-sweep"}`); resp.StatusCode != http.StatusCreated {
		t.Fatalf("bob submit after refill: HTTP %d", resp.StatusCode)
	}

	// Admissions and rejections show up as per-tenant counters.
	snap := s.obs.Metrics().Snapshot()
	if got := snap.Counters["server.tenant.alice.submitted"]; got != 2 {
		t.Fatalf("alice submitted counter = %d, want 2", got)
	}
	if got := snap.Counters["server.tenant.alice.rejected"]; got != 1 {
		t.Fatalf("alice rejected counter = %d, want 1", got)
	}
	if got := snap.Counters["server.tenant.bob.submitted"]; got != 3 {
		t.Fatalf("bob submitted counter = %d, want 3", got)
	}
	if got := snap.Counters["server.tenant.bob.rejected"]; got != 1 {
		t.Fatalf("bob rejected counter = %d, want 1", got)
	}
}

// TestPriorityScheduling pins the dequeue order: high beats normal beats
// low, regardless of submission order, with one slot forcing full
// serialization.
func TestPriorityScheduling(t *testing.T) {
	var mu sync.Mutex
	var order []string
	step := make(chan struct{})
	run := func(ctx context.Context, spec JobSpec, jobDir string, o *obs.Obs) (Artifacts, error) {
		mu.Lock()
		order = append(order, filepath.Base(jobDir))
		mu.Unlock()
		select {
		case <-step:
			return Artifacts{Text: "ok"}, nil
		case <-ctx.Done():
			return Artifacts{}, ctx.Err()
		}
	}
	_, ts := newTestServer(t, Config{Slots: 1}, run)

	guard, _ := postJob(t, ts, `{"kind":"group-sweep"}`)
	waitState(t, ts, guard.ID, StateRunning)

	normal, _ := postJob(t, ts, `{"kind":"group-sweep"}`)
	low, _ := postJob(t, ts, `{"kind":"group-sweep","priority":"low"}`)
	high, _ := postJob(t, ts, `{"kind":"validate","priority":"high"}`)
	if high.Spec.Priority != "high" {
		t.Fatalf("priority not echoed in status: %+v", high.Spec)
	}

	for range 4 {
		step <- struct{}{}
	}
	for _, id := range []string{normal.ID, low.ID, high.ID} {
		waitState(t, ts, id, StateDone)
	}

	mu.Lock()
	defer mu.Unlock()
	want := []string{guard.ID, high.ID, normal.ID, low.ID}
	if len(order) != len(want) {
		t.Fatalf("run order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("run order = %v, want %v", order, want)
		}
	}
}

// TestPriorityValidation rejects unknown priorities and normalizes the
// accepted spellings.
func TestPriorityValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{}, instantRun(Artifacts{Text: "ok"}))
	if _, resp := postJob(t, ts, `{"kind":"group-sweep","priority":"urgent"}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown priority: HTTP %d", resp.StatusCode)
	}
	st, resp := postJob(t, ts, `{"kind":"group-sweep","priority":"Normal"}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("normalized priority: HTTP %d", resp.StatusCode)
	}
	if st.Spec.Priority != "" {
		t.Fatalf(`"Normal" normalized to %q, want ""`, st.Spec.Priority)
	}
}

// TestTenantFairness pins the round-robin between tenants at equal
// priority: one tenant's burst cannot starve another's single job.
func TestTenantFairness(t *testing.T) {
	auth, err := NewAuth([]Tenant{{Name: "alice", Key: "ka"}, {Name: "bob", Key: "kb"}})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var order []string
	step := make(chan struct{})
	run := func(ctx context.Context, spec JobSpec, jobDir string, o *obs.Obs) (Artifacts, error) {
		mu.Lock()
		order = append(order, filepath.Base(jobDir))
		mu.Unlock()
		select {
		case <-step:
			return Artifacts{Text: "ok"}, nil
		case <-ctx.Done():
			return Artifacts{}, ctx.Err()
		}
	}
	_, ts := newTestServer(t, Config{Auth: auth, Slots: 1}, run)

	guard, _ := postJobAs(t, ts, "ka", `{"kind":"group-sweep"}`)
	waitState(t, ts, guard.ID, StateRunning)

	// alice floods two more; bob queues one after her. Fairness hands the
	// slot to bob first (alice was scheduled most recently), then drains
	// alice's backlog in FIFO order.
	a2, _ := postJobAs(t, ts, "ka", `{"kind":"group-sweep"}`)
	a3, _ := postJobAs(t, ts, "ka", `{"kind":"group-sweep"}`)
	b1, _ := postJobAs(t, ts, "kb", `{"kind":"group-sweep"}`)

	for range 4 {
		step <- struct{}{}
	}
	for _, id := range []string{a2.ID, a3.ID, b1.ID} {
		waitState(t, ts, id, StateDone)
	}

	mu.Lock()
	defer mu.Unlock()
	want := []string{guard.ID, b1.ID, a2.ID, a3.ID}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("run order = %v, want %v", order, want)
		}
	}
}

// TestMemStoreLifecycle runs the whole job lifecycle against the
// in-memory store: no StateDir, manifests and artifacts never touch the
// real jobs/ layout, yet every HTTP surface behaves identically.
func TestMemStoreLifecycle(t *testing.T) {
	art := Artifacts{Text: "mem\n", CSV: []byte("a\n1\n")}
	s, err := New(Config{Store: NewMemStore(), Slots: 1, RunJob: instantRun(art)})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	})

	st, resp := postJob(t, ts, `{"kind":"group-sweep"}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	waitState(t, ts, st.ID, StateDone)

	body, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(body.Body)
	body.Body.Close()
	if body.StatusCode != http.StatusOK || string(data) != art.Text {
		t.Fatalf("memstore result: HTTP %d, body %q", body.StatusCode, data)
	}
	if code := getJSON(t, ts.URL+"/v1/jobs/"+st.ID+"/result?format=csv", nil); code != http.StatusOK {
		t.Fatalf("memstore csv result: HTTP %d", code)
	}
	if code := getJSON(t, ts.URL+"/v1/jobs/"+st.ID+"/result?format=json", nil); code != http.StatusNotFound {
		t.Fatalf("absent artifact from memstore: HTTP %d", code)
	}
	// The trace is a store artifact too, so it serves without a state dir.
	if code := getJSON(t, ts.URL+"/v1/jobs/"+st.ID+"/trace", nil); code != http.StatusOK {
		t.Fatalf("memstore trace: HTTP %d", code)
	}
}

// TestClientRoundTrip drives the typed client against a live server:
// submit, wait, result, list, health — including auth and APIError
// statuses.
func TestClientRoundTrip(t *testing.T) {
	auth, err := NewAuth([]Tenant{{Name: "alice", Key: "ka"}})
	if err != nil {
		t.Fatal(err)
	}
	art := Artifacts{Text: "done\n", JSON: []byte(`{"ok":true}`)}
	_, ts := newTestServer(t, Config{Auth: auth}, instantRun(art))

	cl := NewClient(ts.URL+"/", "ka") // trailing slash must not double up
	ctx := context.Background()

	st, err := cl.Submit(ctx, JobSpec{Job: experiments.Job{Kind: "group-sweep"}, Priority: "high"})
	if err != nil {
		t.Fatal(err)
	}
	if st.Tenant != "alice" || st.Spec.Priority != "high" {
		t.Fatalf("submitted status = %+v", st)
	}
	final, err := cl.Wait(ctx, st.ID, 5*time.Millisecond)
	if err != nil || final.State != StateDone {
		t.Fatalf("Wait = %+v, %v", final, err)
	}
	data, err := cl.Result(ctx, st.ID, "json")
	if err != nil || string(data) != `{"ok":true}` {
		t.Fatalf("Result = %q, %v", data, err)
	}
	list, err := cl.List(ctx)
	if err != nil || len(list) != 1 || list[0].ID != st.ID {
		t.Fatalf("List = %+v, %v", list, err)
	}
	h, err := cl.ServerHealth(ctx)
	if err != nil || h.Status != "ok" {
		t.Fatalf("ServerHealth = %+v, %v", h, err)
	}

	// A wrong key surfaces as a typed APIError with the 401 status.
	bad := NewClient(ts.URL, "wrong")
	_, err = bad.Submit(ctx, JobSpec{Job: experiments.Job{Kind: "group-sweep"}})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusUnauthorized {
		t.Fatalf("bad-key Submit err = %v", err)
	}
	if _, err := cl.Status(ctx, "j999999"); err == nil {
		t.Fatal("Status of unknown job did not error")
	}
}
