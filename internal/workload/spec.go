package workload

import (
	"bytes"
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"

	"atomicsmodel/internal/atomics"
	"atomicsmodel/internal/coherence"
	"atomicsmodel/internal/machine"
	"atomicsmodel/internal/sim"
)

// Spec is the declarative, serializable description of one workload
// cell: pure data — primitive, contention mode, thread count (or a
// ladder of counts), placement and arbiter policies by name, line
// striping, think time, read mix, arrival process, and measurement
// window. It is the workload counterpart of machine.Spec: a JSON spec
// file is a first-class workload definition with exactly the powers of
// a hand-written Config, and its content digest is the cell's identity
// in the harness resume cache.
//
// A Spec is machine-independent; Config joins it with a machine. All
// time fields are integer picoseconds (sim.Time's unit) rather than
// fractional larger units, so a spec round-trips through JSON
// byte-exactly and its digest is stable — the open-loop experiment
// computes sub-nanosecond interarrival times that a float encoding
// would corrupt.
type Spec struct {
	// Name identifies the spec in tables, listings and -workloads flags
	// (optional for inline/derived specs; required to register).
	Name string `json:"name,omitempty"`
	// Doc is a one-line description for listings (optional).
	Doc string `json:"doc,omitempty"`

	// Primitive is the atomic under test by display name: one of CAS,
	// FAA, SWAP, TAS, CAS2, Load, Store, Fence.
	Primitive string `json:"primitive"`
	// Mode is the contention pattern by display name: "high-contention"
	// (default), "low-contention" or "read-write-mix".
	Mode string `json:"mode,omitempty"`

	// Exactly one of Threads and ThreadLadder must be set. Threads pins
	// one thread count; ThreadLadder (strictly increasing) describes a
	// sweep that Expand turns into one pinned spec per point.
	Threads      int   `json:"threads,omitempty"`
	ThreadLadder []int `json:"threadLadder,omitempty"`

	// Placement names the thread→hardware-slot policy
	// (machine.PlacementByName): compact (default), scatter, smt-first,
	// or socket-N.
	Placement string `json:"placement,omitempty"`
	// Arbiter names the coherence arbitration policy
	// (coherence.NewByName): fifo (default), random, or locality.
	// ArbiterSkips bounds a locality arbiter's starvation window
	// (0 = unbounded) and is rejected for the other policies. The
	// random arbiter's RNG stream is seeded from Seed.
	Arbiter      string `json:"arbiter,omitempty"`
	ArbiterSkips int    `json:"arbiterSkips,omitempty"`

	// Lines is the contention-group line count: shared lines in
	// high-contention mode (default 1), private lines per thread in
	// low-contention mode (default 16).
	Lines int `json:"lines,omitempty"`

	// LocalWorkPS is think time between operations in picoseconds;
	// WorkJitter draws it from an exponential distribution with that
	// mean instead of a constant.
	LocalWorkPS sim.Time `json:"localWorkPS,omitempty"`
	WorkJitter  bool     `json:"workJitter,omitempty"`

	// ReadFraction applies in read-write-mix mode only.
	ReadFraction float64 `json:"readFraction,omitempty"`

	// CASRetryLoop makes CAS/CAS2 threads retry until success (the
	// lock-free update loop) rather than counting blind attempts.
	CASRetryLoop bool `json:"casRetryLoop,omitempty"`

	// OpenLoop switches to an open-loop arrival process with
	// exponentially distributed per-thread inter-arrival times of mean
	// OpenLoopInterarrivalPS picoseconds (required with OpenLoop, and
	// meaningless — rejected — without it).
	OpenLoop               bool     `json:"openLoop,omitempty"`
	OpenLoopInterarrivalPS sim.Time `json:"openLoopInterarrivalPS,omitempty"`

	// WarmupPS and DurationPS bound the run in picoseconds; only
	// operations completing in [warmup, warmup+duration] are measured.
	// Zero means the workload defaults (20µs / 200µs); the harness pins
	// its own window per Options.
	WarmupPS   sim.Time `json:"warmupPS,omitempty"`
	DurationPS sim.Time `json:"durationPS,omitempty"`

	// Seed seeds the cell's RNG streams (thread jitter, arrival draws,
	// the random arbiter). The harness derives per-cell seeds from its
	// base seed when a spec leaves this zero.
	Seed uint64 `json:"seed,omitempty"`
}

// maxSpecThreads bounds spec-declared thread counts and ladder points;
// it matches the machine layer's hardware-thread ceiling — a spec
// beyond it is a typo, not a plan.
const maxSpecThreads = 1 << 16

// maxSpecLines bounds the per-group line count.
const maxSpecLines = 1 << 20

// Clone returns a deep copy; callers derive variants (a thread ladder
// point, a tweaked knob) by cloning and mutating.
func (s *Spec) Clone() *Spec {
	out := *s
	out.ThreadLadder = append([]int(nil), s.ThreadLadder...)
	return &out
}

// Validate checks the spec's machine-independent invariants: names
// resolve, cross-field constraints hold, and no knob is set that the
// chosen mode or arrival process would silently ignore. Capacity
// against a concrete machine (threads vs hardware slots, socket
// indices) is checked at Config/Place time.
func (s *Spec) Validate() error {
	if _, err := atomics.Parse(s.Primitive); err != nil {
		return fmt.Errorf("workload spec: %w", err)
	}
	mode := s.Mode
	if mode == "" {
		mode = HighContention.String()
	}
	m, err := ParseMode(mode)
	if err != nil {
		return fmt.Errorf("workload spec: %w", err)
	}
	switch {
	case s.Threads == 0 && len(s.ThreadLadder) == 0:
		return fmt.Errorf("workload spec: one of threads or threadLadder is required")
	case s.Threads != 0 && len(s.ThreadLadder) != 0:
		return fmt.Errorf("workload spec: threads and threadLadder are mutually exclusive")
	case s.Threads < 0 || s.Threads > maxSpecThreads:
		return fmt.Errorf("workload spec: threads = %d (want 1..%d)", s.Threads, maxSpecThreads)
	}
	prev := 0
	for _, n := range s.ThreadLadder {
		if n <= prev || n > maxSpecThreads {
			return fmt.Errorf("workload spec: threadLadder %v must be strictly increasing in 1..%d", s.ThreadLadder, maxSpecThreads)
		}
		prev = n
	}
	if _, err := machine.PlacementByName(s.Placement); err != nil {
		return fmt.Errorf("workload spec: %w", err)
	}
	arb := s.Arbiter
	if arb == "" {
		arb = "fifo"
	}
	if _, err := coherence.NewByName(arb, s.ArbiterSkips, 0); err != nil {
		return fmt.Errorf("workload spec: %w", err)
	}
	if s.Lines < 0 || s.Lines > maxSpecLines {
		return fmt.Errorf("workload spec: lines = %d (want 0..%d)", s.Lines, maxSpecLines)
	}
	if s.LocalWorkPS < 0 {
		return fmt.Errorf("workload spec: localWorkPS = %d (want >= 0)", s.LocalWorkPS)
	}
	if s.WorkJitter && s.LocalWorkPS == 0 {
		return fmt.Errorf("workload spec: workJitter has no effect with zero localWorkPS")
	}
	if s.ReadFraction < 0 || s.ReadFraction > 1 {
		return fmt.Errorf("workload spec: readFraction %v out of [0,1]", s.ReadFraction)
	}
	if m != ReadWriteMix && s.ReadFraction != 0 {
		return fmt.Errorf("workload spec: readFraction %v has no effect in %s mode", s.ReadFraction, m)
	}
	if s.CASRetryLoop {
		if p, _ := atomics.Parse(s.Primitive); p != atomics.CAS && p != atomics.CAS2 {
			return fmt.Errorf("workload spec: casRetryLoop requires primitive CAS or CAS2, not %s", s.Primitive)
		}
		if s.OpenLoop {
			return fmt.Errorf("workload spec: openLoop and casRetryLoop are mutually exclusive")
		}
	}
	if s.OpenLoop && s.OpenLoopInterarrivalPS <= 0 {
		return fmt.Errorf("workload spec: openLoop requires a positive openLoopInterarrivalPS")
	}
	if !s.OpenLoop && s.OpenLoopInterarrivalPS != 0 {
		return fmt.Errorf("workload spec: openLoopInterarrivalPS %d has no effect without openLoop", s.OpenLoopInterarrivalPS)
	}
	if s.WarmupPS < 0 || s.DurationPS < 0 {
		return fmt.Errorf("workload spec: negative warmupPS/durationPS")
	}
	return nil
}

// Defaulted returns a copy with every defaultable field made explicit:
// mode, placement, arbiter, line count, and measurement window. The
// digest is computed over this form, so a spec that spells out the
// defaults and one that omits them are the same cell.
func (s *Spec) Defaulted() *Spec {
	out := s.Clone()
	if out.Mode == "" {
		out.Mode = HighContention.String()
	}
	if out.Placement == "" {
		out.Placement = "compact"
	}
	if out.Arbiter == "" {
		out.Arbiter = "fifo"
	}
	if out.Lines == 0 {
		if out.Mode == LowContention.String() {
			out.Lines = 16
		} else {
			out.Lines = 1
		}
	}
	if out.WarmupPS == 0 {
		out.WarmupPS = 20 * sim.Microsecond
	}
	if out.DurationPS == 0 {
		out.DurationPS = 200 * sim.Microsecond
	}
	return out
}

// Canonical returns the canonical JSON encoding of the defaulted spec —
// fixed field order, defaults explicit, no insignificant whitespace —
// the bytes the digest is computed over.
func (s *Spec) Canonical() ([]byte, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return json.Marshal(s.Defaulted())
}

// Digest returns a short hex digest of the canonical encoding. Joined
// with the machine key it is the cell's identity in harness cache keys:
// two specs that differ in any effective knob can never alias a cache
// entry, and two spellings of the same cell always share one.
func (s *Spec) Digest() (string, error) {
	raw, err := s.Canonical()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])[:12], nil
}

// Expand returns the pinned single-thread-count specs this spec
// describes: itself if Threads is set, otherwise one clone per
// ThreadLadder point with Threads pinned and the ladder cleared.
func (s *Spec) Expand() []*Spec {
	if len(s.ThreadLadder) == 0 {
		return []*Spec{s.Clone()}
	}
	out := make([]*Spec, 0, len(s.ThreadLadder))
	for _, n := range s.ThreadLadder {
		p := s.Clone()
		p.Threads = n
		p.ThreadLadder = nil
		out = append(out, p)
	}
	return out
}

// Config joins the spec with a machine, resolving policy names into a
// runnable workload Config. The spec must be pinned (no thread ladder;
// see Expand). The resolved arbiter for "fifo" is the stateless value
// coherence.FIFOArbiter{} — identical in behaviour and fast-forward
// eligibility to the nil default a hand-written Config would carry.
func (s *Spec) Config(m *machine.Machine) (Config, error) {
	if err := s.Validate(); err != nil {
		return Config{}, err
	}
	if len(s.ThreadLadder) > 0 {
		return Config{}, fmt.Errorf("workload spec %s: expand the thread ladder before building a Config", s.label())
	}
	d := s.Defaulted()
	prim, err := atomics.Parse(d.Primitive)
	if err != nil {
		return Config{}, err
	}
	mode, err := ParseMode(d.Mode)
	if err != nil {
		return Config{}, err
	}
	place, err := machine.PlacementByName(d.Placement)
	if err != nil {
		return Config{}, err
	}
	arb, err := coherence.NewByName(d.Arbiter, d.ArbiterSkips, d.Seed)
	if err != nil {
		return Config{}, err
	}
	return Config{
		Machine:              m,
		Arbiter:              arb,
		Placement:            place,
		Threads:              d.Threads,
		Primitive:            prim,
		Mode:                 mode,
		LocalWork:            d.LocalWorkPS,
		WorkJitter:           d.WorkJitter,
		Lines:                d.Lines,
		ReadFraction:         d.ReadFraction,
		Warmup:               d.WarmupPS,
		Duration:             d.DurationPS,
		Seed:                 d.Seed,
		CASRetryLoop:         d.CASRetryLoop,
		OpenLoop:             d.OpenLoop,
		OpenLoopInterarrival: d.OpenLoopInterarrivalPS,
	}, nil
}

// label names the spec in errors and listings.
func (s *Spec) label() string {
	if s.Name != "" {
		return s.Name
	}
	mode := s.Mode
	if mode == "" {
		mode = HighContention.String()
	}
	return s.Primitive + "/" + mode
}

// Label is the spec's display name: Name if set, else a
// primitive/mode summary.
func (s *Spec) Label() string { return s.label() }

// RunSpec runs a pinned spec on the given machine and returns the
// measured Result.
func RunSpec(s *Spec, m *machine.Machine) (*Result, error) {
	cfg, err := s.Config(m)
	if err != nil {
		return nil, err
	}
	return Run(cfg)
}

// ParseSpec decodes a JSON workload spec and validates it. Unknown
// fields and trailing garbage are errors: a spec file is user input,
// and a typo that silently dropped a knob would produce confidently
// wrong cells.
func ParseSpec(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("workload spec: %w", err)
	}
	var trailer json.RawMessage
	if err := dec.Decode(&trailer); err != io.EOF {
		return nil, fmt.Errorf("workload spec: trailing data after the spec object")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// LoadSpecFile reads, parses and validates a workload spec from a JSON
// file (the CLIs' -workloadfile path).
func LoadSpecFile(path string) (*Spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("workload spec %s: %w", path, err)
	}
	s, err := ParseSpec(raw)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// This is the workload spec registry: every built-in workload is an
// embedded JSON spec under specs/; init loads and registers them, and
// SpecByName resolves lookups case-insensitively. Adding a built-in
// workload requires zero Go code: drop a JSON file in specs/ and it
// becomes selectable by name in every CLI's -workloads flag.

//go:embed specs/*.json
var specFS embed.FS

var (
	specRegMu  sync.RWMutex
	specReg    = map[string]*Spec{}  // canonical name → spec
	specLookup = map[string]string{} // lowercased name → canonical name
)

// RegisterSpec adds a named, valid spec to the registry (name matched
// case-insensitively by SpecByName). Duplicates are errors: a silent
// shadow would make lookups ambiguous.
func RegisterSpec(s *Spec) error {
	if s.Name == "" {
		return fmt.Errorf("workload spec: registration requires a name")
	}
	if err := s.Validate(); err != nil {
		return err
	}
	specRegMu.Lock()
	defer specRegMu.Unlock()
	lk := strings.ToLower(s.Name)
	if owner, dup := specLookup[lk]; dup {
		return fmt.Errorf("workload spec: name %q collides with %s", s.Name, owner)
	}
	specReg[s.Name] = s.Clone()
	specLookup[lk] = s.Name
	return nil
}

func init() {
	entries, err := specFS.ReadDir("specs")
	if err != nil {
		panic(fmt.Sprintf("workload: embedded specs: %v", err))
	}
	for _, e := range entries {
		raw, err := specFS.ReadFile("specs/" + e.Name())
		if err != nil {
			panic(fmt.Sprintf("workload: embedded spec %s: %v", e.Name(), err))
		}
		s, err := ParseSpec(raw)
		if err != nil {
			panic(fmt.Sprintf("workload: embedded spec %s: %v", e.Name(), err))
		}
		if err := RegisterSpec(s); err != nil {
			panic(fmt.Sprintf("workload: embedded spec %s: %v", e.Name(), err))
		}
	}
}

// SpecNames returns the canonical names of all registered workload
// specs, sorted.
func SpecNames() []string {
	specRegMu.RLock()
	defer specRegMu.RUnlock()
	out := make([]string, 0, len(specReg))
	for name := range specReg {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// SpecByName returns a deep copy of the registered spec for the given
// name (case-insensitive). Callers mutate the copy freely.
func SpecByName(name string) (*Spec, error) {
	specRegMu.RLock()
	defer specRegMu.RUnlock()
	canonical, ok := specLookup[strings.ToLower(name)]
	if !ok {
		names := make([]string, 0, len(specReg))
		for n := range specReg {
			names = append(names, n)
		}
		sort.Strings(names)
		return nil, fmt.Errorf("workload: unknown workload %q (registered: %s)", name, strings.Join(names, ", "))
	}
	return specReg[canonical].Clone(), nil
}
