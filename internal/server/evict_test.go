package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"duplo/internal/sim"
)

// addJob registers a job the way handleSubmit does, without simulating:
// started (running) but not finished.
func addJob(s *Server) *job {
	j := &job{started: make(chan struct{}), done: make(chan struct{})}
	close(j.started)
	s.mu.Lock()
	s.seq++
	j.id = fmt.Sprintf("r%06d", s.seq)
	s.jobs[j.id] = j
	s.mu.Unlock()
	return j
}

// serve runs one request through the handler in process and returns the
// status code, decoding the body into out when it is non-nil.
func serve(t testing.TB, h http.Handler, method, path, body string, out any) int {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
	if out != nil {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("%s %s: decode: %v", method, path, err)
		}
	}
	return rec.Code
}

// TestServerJobTTLEvictionRetained retains thousands of finished jobs
// with staggered finish times and checks, at several clock readings, that
// exactly the jobs that finished more than JobTTL ago are evicted: their
// GETs answer 410, the rest 200, never-issued ids 404, and /statsz counts
// match a recount from the finish times. A job still running past the TTL
// is never evicted; once it finishes it ages out like the others.
func TestServerJobTTLEvictionRetained(t *testing.T) {
	const n, ttl = 3000, time.Hour
	ck := &mutexClock{at: time.Unix(1_700_000_000, 0)}
	s := New(Config{Options: quickOpts(), JobTTL: ttl, Now: ck.now})
	h := s.Handler()

	start := ck.now()
	long := addJob(s) // stays running until the end
	finishedAt := map[string]time.Time{}
	failed := map[string]bool{}
	for i := 0; i < n; i++ {
		j := addJob(s)
		var err error
		if i%7 == 0 {
			err = errors.New("injected failure")
			failed[j.id] = true
		}
		s.finishJob(j, sim.Result{}, err)
		finishedAt[j.id] = ck.now()
		ck.advance(time.Second)
	}

	check := func(step string) {
		cutoff := ck.now().Add(-ttl)
		wantEvicted, wantDone, wantFailed := 0, 0, 0
		for id, at := range finishedAt {
			switch {
			case at.Before(cutoff):
				wantEvicted++
			case failed[id]:
				wantFailed++
			default:
				wantDone++
			}
		}
		// Probe every 97th id plus the ones straddling the cutoff.
		for id, at := range finishedAt {
			if jobSeq(id)%97 != 0 && at.Sub(cutoff).Abs() > 2*time.Second {
				continue
			}
			want := http.StatusOK
			if at.Before(cutoff) {
				want = http.StatusGone
			}
			if code := serve(t, h, "GET", "/v1/runs/"+id, "", nil); code != want {
				t.Fatalf("%s: GET %s (finished %v before now): status %d, want %d",
					step, id, ck.now().Sub(at), code, want)
			}
		}
		var js JobStatus
		if code := serve(t, h, "GET", "/v1/runs/"+long.id, "", &js); code != http.StatusOK || js.Status != jobRunning {
			t.Fatalf("%s: running job: status %d %q, want 200 running", step, code, js.Status)
		}
		for _, id := range []string{fmt.Sprintf("r%06d", n+2), "r999999", "bogus"} {
			if code := serve(t, h, "GET", "/v1/runs/"+id, "", nil); code != http.StatusNotFound {
				t.Fatalf("%s: never-issued %s: status %d, want 404", step, id, code)
			}
		}
		var stz StatsZ
		serve(t, h, "GET", "/statsz", "", &stz)
		if stz.JobsEvicted != int64(wantEvicted) || stz.JobsTotal != n+1-wantEvicted ||
			stz.JobsDone != wantDone || stz.JobsFailed != wantFailed || stz.JobsRunning != 1 {
			t.Fatalf("%s: statsz evicted=%d total=%d done=%d failed=%d running=%d, want %d/%d/%d/%d/1",
				step, stz.JobsEvicted, stz.JobsTotal, stz.JobsDone, stz.JobsFailed, stz.JobsRunning,
				wantEvicted, n+1-wantEvicted, wantDone, wantFailed)
		}
	}

	check("none expired")
	for _, at := range []time.Duration{ttl + 500*time.Second, ttl + 1500*time.Second, ttl + 2999*time.Second} {
		ck.advance(start.Add(at).Sub(ck.now()))
		check(fmt.Sprintf("t=%v", at))
	}
	ck.advance(ttl) // every retained job has expired; the running one stays
	check("all expired")

	s.finishJob(long, sim.Result{}, nil)
	ck.advance(ttl + time.Second)
	if code := serve(t, h, "GET", "/v1/runs/"+long.id, "", nil); code != http.StatusGone {
		t.Fatalf("long job after finishing and aging out: status %d, want 410", code)
	}
	var stz StatsZ
	serve(t, h, "GET", "/statsz", "", &stz)
	if stz.JobsEvicted != n+1 || stz.JobsTotal != 0 {
		t.Fatalf("final statsz evicted=%d total=%d, want %d/0", stz.JobsEvicted, stz.JobsTotal, n+1)
	}
}

// BenchmarkServerSubmitGetRetained measures one submit plus one GET of a
// memo-warm cell with 10,000 finished jobs retained inside the TTL — the
// per-request cost that used to grow with the retained job count.
func BenchmarkServerSubmitGetRetained(b *testing.B) {
	s := New(Config{Options: quickOpts(), JobTTL: time.Hour})
	h := s.Handler()
	for i := 0; i < 10_000; i++ {
		s.finishJob(addJob(s), sim.Result{}, nil)
	}
	const body = `{"network":"ResNet","layer":"C2","duplo":true}`
	// Warm the runner's memo so the loop measures the server, not a run.
	var js JobStatus
	if code := serve(b, h, "POST", "/v1/runs", body, &js); code != http.StatusAccepted {
		b.Fatalf("warm submit: status %d", code)
	}
	for js.Status != jobDone {
		if js.Status == jobFailed {
			b.Fatalf("warm job failed: %+v", js.Error)
		}
		time.Sleep(10 * time.Millisecond)
		serve(b, h, "GET", "/v1/runs/"+js.ID, "", &js)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if code := serve(b, h, "POST", "/v1/runs", body, &js); code != http.StatusAccepted {
			b.Fatalf("submit: status %d", code)
		}
		if code := serve(b, h, "GET", "/v1/runs/"+js.ID, "", nil); code != http.StatusOK {
			b.Fatalf("get: status %d", code)
		}
	}
}
