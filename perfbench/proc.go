package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// proc is one running program process. Its standard output and error
// are captured in memory; each stderr read is timestamped so progress
// lines can be placed in time.
type proc struct {
	name  string
	cmd   *exec.Cmd
	start time.Time

	mu       sync.Mutex
	stdout   bytes.Buffer
	stderr   bytes.Buffer
	firstOut time.Duration // exec → first stdout byte; 0 until it arrives
	chunks   []chunk
	readers  sync.WaitGroup
}

type chunk struct {
	end int           // stderr offset just past this read
	at  time.Duration // since start
}

// procResult is what a finished process cost.
type procResult struct {
	Wall     float64 // s, exec to exit
	Setup    float64 // s, exec to first stdout byte (0 if none)
	CPU      float64 // s, user+sys
	MaxRSSMB float64
	Stdout   []byte
	Stderr   []byte
	start    time.Time
	chunks   []chunk
}

// startProc starts bin with args. gctrace turns on the Go runtime's
// per-collection trace on stderr (used only by traced runs).
func startProc(ctx context.Context, name, bin string, args []string, gctrace bool) (*proc, error) {
	p := &proc{name: name, cmd: exec.CommandContext(ctx, bin, args...)}
	p.cmd.Env = os.Environ()
	if gctrace {
		p.cmd.Env = append(p.cmd.Env, "GODEBUG=gctrace=1")
	}
	out, err := p.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	errp, err := p.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	p.start = time.Now()
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	p.readers.Add(2)
	go p.read(out, false)
	go p.read(errp, true)
	return p, nil
}

func (p *proc) read(r io.Reader, isErr bool) {
	defer p.readers.Done()
	buf := make([]byte, 64<<10)
	for {
		n, err := r.Read(buf)
		if n > 0 {
			at := time.Since(p.start)
			p.mu.Lock()
			if isErr {
				p.stderr.Write(buf[:n])
				p.chunks = append(p.chunks, chunk{p.stderr.Len(), at})
			} else {
				if p.stdout.Len() == 0 {
					p.firstOut = at
				}
				p.stdout.Write(buf[:n])
			}
			p.mu.Unlock()
		}
		if err != nil {
			return
		}
	}
}

// signal sends sig to the process.
func (p *proc) signal(sig os.Signal) error { return p.cmd.Process.Signal(sig) }

// wait waits for the process to exit and returns its cost. A non-zero
// exit is an error that carries the tail of stderr.
func (p *proc) wait() (*procResult, error) {
	p.readers.Wait()
	werr := p.cmd.Wait()
	wall := time.Since(p.start)
	p.mu.Lock()
	defer p.mu.Unlock()
	res := &procResult{
		Wall:   wall.Seconds(),
		Setup:  p.firstOut.Seconds(),
		Stdout: p.stdout.Bytes(),
		Stderr: p.stderr.Bytes(),
		start:  p.start,
		chunks: p.chunks,
	}
	if ru, ok := p.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		res.CPU = tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
		res.MaxRSSMB = float64(ru.Maxrss) / 1024 // KiB on Linux
	}
	if werr != nil {
		tail := res.Stderr
		if len(tail) > 2000 {
			tail = tail[len(tail)-2000:]
		}
		return res, fmt.Errorf("%s: %v: %s", p.name, werr, tail)
	}
	return res, nil
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// runProc runs bin to completion.
func runProc(ctx context.Context, name, bin string, args []string, gctrace bool) (*procResult, error) {
	p, err := startProc(ctx, name, bin, args, gctrace)
	if err != nil {
		return nil, err
	}
	return p.wait()
}

// progressEvent is one "\rID: done/total cells" update that atomicsim
// writes to stderr after each completed cell.
type progressEvent struct {
	Exp string
	At  float64 // s since exec, when the update was read
}

var progressRE = regexp.MustCompile(`\r([^:\r\n]+): \d+/\d+ cells`)

// progress extracts the cell-completion updates from stderr.
func (r *procResult) progress() []progressEvent {
	var evs []progressEvent
	ci := 0
	for _, m := range progressRE.FindAllSubmatchIndex(r.Stderr, -1) {
		for ci < len(r.chunks)-1 && r.chunks[ci].end < m[1] {
			ci++
		}
		evs = append(evs, progressEvent{Exp: string(r.Stderr[m[2]:m[3]]), At: r.chunks[ci].at.Seconds()})
	}
	return evs
}

// gcStats is what GODEBUG=gctrace=1 reveals about a process's runtime.
type gcStats struct {
	AllocMB float64 // heap allocated, summed over collection cycles
	CPUFrac float64 // share of CPU time spent in GC since start
}

// gctrace lines look like
// "gc 7 @0.512s 3%: 0.01+1.2+0.02 ms clock, ..., 4->5->1 MB, 5 MB goal, ...".
var gcLineRE = regexp.MustCompile(`(?m)^gc \d+ @[0-9.]+s (\d+)%: .*? (\d+)->\d+->(\d+) MB`)

// gcTrace parses gctrace output. Allocation between two collections is
// the heap size when the later one starts minus what the earlier one
// left live; allocation after the last collection is not seen.
func gcTrace(stderr []byte) gcStats {
	var g gcStats
	live := 0.0
	for _, m := range gcLineRE.FindAllSubmatch(stderr, -1) {
		pct, _ := strconv.ParseFloat(string(m[1]), 64)
		start, _ := strconv.ParseFloat(string(m[2]), 64)
		after, _ := strconv.ParseFloat(string(m[3]), 64)
		g.AllocMB += max(start-live, 0)
		live = after
		g.CPUFrac = pct / 100
	}
	return g
}
