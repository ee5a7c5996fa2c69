package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"atomicsmodel/internal/jobs"
	"atomicsmodel/internal/runlog"
)

// daemon is one running atomicd process.
type daemon struct {
	p     *proc
	base  string
	ready float64 // s from exec until /readyz answered 200
}

// startDaemon starts atomicd on dir and waits until it is ready. At
// most two cells run at once: two job workers with one cell each.
func (b *bench) startDaemon(dir string, gctrace bool) (*daemon, error) {
	addrPath := filepath.Join(dir, "atomicd.addr")
	if err := os.Remove(addrPath); err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	p, err := startProc(b.ctx, "atomicd", filepath.Join(b.bin, "atomicd"),
		[]string{"-dir", dir, "-quiet", "-par", "1"}, gctrace)
	if err != nil {
		return nil, err
	}
	d := &daemon{p: p}
	c := newClient(b.ctx, "bench", "")
	defer c.close()
	for b.ctx.Err() == nil {
		if c.base == "" {
			if a, err := os.ReadFile(addrPath); err == nil && bytes.HasSuffix(a, []byte("\n")) {
				c.base = "http://" + strings.TrimSpace(string(a))
			}
		}
		if c.base != "" {
			if code, _, err := c.do("GET", "/readyz", nil); err == nil && code == http.StatusOK {
				d.base, d.ready = c.base, time.Since(p.start).Seconds()
				return d, nil
			}
		}
		time.Sleep(200 * time.Microsecond)
	}
	res, _ := d.p.wait() // the expired context killed it
	return nil, fmt.Errorf("atomicd on %s never became ready: %s", dir, res.Stderr)
}

// stop drains the daemon with SIGTERM and waits for it to exit. A
// daemon that has not exited after 30s is killed and reported.
func (d *daemon) stop() (*procResult, error) {
	if err := d.p.signal(syscall.SIGTERM); err != nil {
		return nil, err
	}
	t := time.AfterFunc(30*time.Second, func() { d.p.signal(syscall.SIGKILL) })
	defer t.Stop()
	return d.p.wait()
}

// kill ends the daemon without draining; for error paths.
func (d *daemon) kill() {
	d.p.signal(syscall.SIGKILL)
	d.p.wait()
}

// client is one closed-loop client with a single connection.
type client struct {
	ctx  context.Context
	name string
	base string
	hc   *http.Client
}

func newClient(ctx context.Context, name, base string) *client {
	return &client{ctx: ctx, name: name, base: base, hc: &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

func (c *client) do(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(c.ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("X-Client", c.name)
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// healthz reads the daemon counters.
func (c *client) healthz() (jobs.Stats, error) {
	var s jobs.Stats
	code, b, err := c.do("GET", "/healthz", nil)
	if err != nil {
		return s, err
	}
	if code != http.StatusOK {
		return s, fmt.Errorf("healthz: HTTP %d", code)
	}
	return s, json.Unmarshal(b, &s)
}

// jobOutcome is what one submitted job cost and returned.
type jobOutcome struct {
	Job                  *mixJob
	Start, Running, Done time.Time
	Submit, Result       float64 // s
	MaxCellGap           float64 // s, longest wait between progress updates while running
	Failed               bool
	Err                  error
}

func (o *jobOutcome) latency() float64 { return o.Done.Sub(o.Start).Seconds() }

// follow waits for job id to finish. Traced runs read the NDJSON
// stream, which reports when the job started running and each cell;
// untraced runs long-poll the status instead.
func (c *client) follow(id string, traced bool, o *jobOutcome) (jobs.Status, error) {
	if !traced {
		for {
			code, b, err := c.do("GET", "/jobs/"+id+"?wait=60s", nil)
			if err != nil {
				return jobs.Status{}, err
			}
			var st jobs.Status
			if code != http.StatusOK {
				return st, fmt.Errorf("status %s: HTTP %d: %s", id, code, b)
			}
			if err := json.Unmarshal(b, &st); err != nil {
				return st, err
			}
			if st.State.Terminal() {
				o.Done = time.Now()
				return st, nil
			}
		}
	}
	req, err := http.NewRequestWithContext(c.ctx, "GET", c.base+"/jobs/"+id+"/stream", nil)
	if err != nil {
		return jobs.Status{}, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return jobs.Status{}, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	var st jobs.Status
	var last time.Time
	for sc.Scan() {
		now := time.Now()
		if err := json.Unmarshal(sc.Bytes(), &st); err != nil {
			return st, err
		}
		switch {
		case !o.Running.IsZero():
			o.MaxCellGap = max(o.MaxCellGap, now.Sub(last).Seconds())
			last = now
		case st.State == jobs.StateRunning:
			o.Running, last = now, now
		}
		if st.State.Terminal() {
			o.Done = now
			io.Copy(io.Discard, resp.Body)
			return st, nil
		}
	}
	if err := sc.Err(); err != nil {
		return st, err
	}
	return st, fmt.Errorf("stream %s ended before the job finished", id)
}

// runJob submits one job, waits for it and checks its result.
func (c *client) runJob(j *mixJob, traced bool, want map[string]groupRecord) *jobOutcome {
	o := &jobOutcome{Job: j, Start: time.Now()}
	code, b, err := c.do("POST", "/jobs", j.Body)
	o.Submit = time.Since(o.Start).Seconds()
	if err == nil && code != http.StatusOK && code != http.StatusAccepted {
		err = fmt.Errorf("submit: HTTP %d: %s", code, b)
	}
	var st jobs.Status
	if err == nil {
		err = json.Unmarshal(b, &st)
	}
	if err == nil {
		st, err = c.follow(st.ID, traced, o)
	}
	if err == nil && st.State != jobs.StateDone {
		err = fmt.Errorf("job %s %s: %s", st.ID, st.State, st.Error)
	}
	if err != nil {
		o.Failed, o.Err = true, err
		return o
	}
	t := time.Now()
	code, text, err := c.do("GET", "/jobs/"+st.ID+"/result", nil)
	o.Result = time.Since(t).Seconds()
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("result %s: HTTP %d", st.ID, code)
	}
	if err == nil {
		err = checkJobResult(j, st.ResultDigest, text, want)
	}
	if err != nil {
		o.Failed, o.Err = true, err
	}
	return o
}

// checkJobResult verifies a job result: its digest is the one the
// daemon reported, and it holds exactly the job's tables, each equal to
// the recorded table.
func checkJobResult(j *mixJob, resultDigest string, text []byte, want map[string]groupRecord) error {
	raw, err := json.Marshal(struct {
		Text string `json:"text"`
	}{string(text)})
	if err != nil {
		return err
	}
	if d := runlog.Digest(raw); d != resultDigest {
		return fmt.Errorf("job %s: result digest %s, daemon reported %s", j.Body, d, resultDigest)
	}
	got := map[string]string{}
	for _, t := range splitTables(text) {
		got[modeOf(j.Quick)+"|"+t.title] = t.digest
	}
	groups := j.groups()
	if len(got) != len(groups) {
		return fmt.Errorf("job %s: %d tables, want %d", j.Body, len(got), len(groups))
	}
	for _, g := range groups {
		rec, ok := want[g]
		if !ok {
			return fmt.Errorf("job %s: no recorded digest for table %q", j.Body, g)
		}
		if got[g] != rec.Digest {
			return fmt.Errorf("job %s: table %q digest %s, recorded %s", j.Body, g, got[g], rec.Digest)
		}
	}
	return nil
}

// phase runs jobs with two closed-loop clients, each with one
// connection; a job waits for the jobs it depends on before it is
// submitted. It returns the outcomes in stream order and the phase wall
// time.
func (b *bench) phase(base string, stream []*mixJob, traced bool, parent int) ([]*jobOutcome, float64) {
	outs := make([]*jobOutcome, len(stream))
	done := make([]chan struct{}, len(stream))
	for i := range done {
		done[i] = make(chan struct{})
	}
	var mu sync.Mutex
	next := 0
	start := time.Now()
	var wg sync.WaitGroup
	for ci := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient(b.ctx, fmt.Sprintf("c%d", ci), base)
			defer c.close()
			lane := fmt.Sprintf("client %d", ci)
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(stream) {
					return
				}
				j := stream[i]
				for _, d := range j.Deps {
					<-done[d]
				}
				o := c.runJob(j, traced, b.digests.Mix)
				outs[i] = o
				close(done[i])
				b.traceJob(o, lane, parent)
			}
		}()
	}
	wg.Wait()
	return outs, time.Since(start).Seconds()
}

// traceJob records a job span with its submit, queue, run and result
// children.
func (b *bench) traceJob(o *jobOutcome, lane string, parent int) {
	t := b.tr
	if t == nil {
		return
	}
	args := map[string]any{"class": o.Job.Class, "body": string(o.Job.Body)}
	if o.Err != nil {
		args["error"] = o.Err.Error()
	}
	end := o.Done
	if end.IsZero() {
		end = time.Now()
	}
	resultEnd := end.Add(time.Duration(o.Result * float64(time.Second)))
	id := t.add("job", lane, parent, t.since(o.Start), t.since(resultEnd), args)
	submitted := o.Start.Add(time.Duration(o.Submit * float64(time.Second)))
	t.add("submit", lane, id, t.since(o.Start), t.since(submitted), nil)
	if !o.Running.IsZero() {
		t.add("queued", lane, id, t.since(submitted), t.since(o.Running), nil)
		t.add("running", lane, id, t.since(o.Running), t.since(end), nil)
	}
	t.add("result", lane, id, t.since(end), t.since(resultEnd), nil)
}

// cacheLine is one entry of a cells.jsonl cell cache.
type cacheLine struct {
	Key   string          `json:"key"`
	Value json.RawMessage `json:"value"`
}

// readCache returns the entries of dir's cell cache in file order.
func readCache(dir string) ([]cacheLine, error) {
	data, err := os.ReadFile(filepath.Join(dir, "cells.jsonl"))
	if err != nil {
		return nil, err
	}
	var out []cacheLine
	for _, line := range bytes.Split(data, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var c cacheLine
		if err := json.Unmarshal(line, &c); err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}
