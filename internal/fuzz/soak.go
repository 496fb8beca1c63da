package fuzz

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"borealis/internal/scenario"
)

// SoakOptions tunes a long-running soak campaign.
type SoakOptions struct {
	// Seed is the master seed; every run's spec seed derives from
	// (Seed, global run index), so the campaign's work is a pure function
	// of Seed — only how far it gets depends on the budget.
	Seed int64
	// BatchRuns is the number of specs per batch (default 32). Batches
	// are the unit of checkpointing and budget accounting: state on disk
	// always describes a whole number of batches.
	BatchRuns int
	// MaxBatches caps the total number of completed batches, counting
	// batches replayed from a checkpoint; 0 means the budget decides.
	// With both zero, Soak runs exactly one more batch.
	MaxBatches int
	// Budget is the wall-clock budget: no new batch starts after it is
	// spent. Zero means MaxBatches decides.
	Budget time.Duration
	// Parallelism bounds the RunMany worker pool (0 = one per core).
	// Results are identical regardless.
	Parallelism int
	// MaxShrinkRuns bounds each finding's reduction (0 = Shrink default).
	MaxShrinkRuns int
	// Differential also runs the differential oracles (virtual vs wall
	// clock, serial vs parallel) on every spec whose normal oracles pass.
	// Roughly 5× the per-spec cost; meant for nightly budgets.
	Differential bool
	// MutationPool holds specs to mutate — typically the regression
	// corpus plus the curated scenarios (see LoadPool). Empty means every
	// run generates a fresh spec.
	MutationPool []*scenario.Spec
	// MutateFrac is the fraction of runs drawn by mutating a pool spec
	// rather than generating (default 0.5; ignored with an empty pool).
	MutateFrac float64
	// Checkpoint is the state file: loaded (and validated against Seed
	// and BatchRuns) when it exists, rewritten atomically after every
	// batch. Empty disables persistence.
	Checkpoint string
	// Log receives one progress line per batch; nil is silent.
	Log io.Writer
}

// SoakFinding is one unique failure class found by a soak campaign.
// Identity is the dedup key — oracle class plus shrunk-spec hash — so a
// bug rediscovered by many seeds and mutants is one entry with a count.
type SoakFinding struct {
	Key    string `json:"key"`
	Oracle string `json:"oracle"`
	// Count is how many runs hit this class; the remaining fields
	// describe the first occurrence.
	Count    int    `json:"count"`
	FirstRun int    `json:"first_run"`
	SpecSeed int64  `json:"spec_seed"`
	Origin   string `json:"origin"` // "generated" or "mutated:<base name>"

	Findings       []Finding      `json:"findings"`
	Spec           *scenario.Spec `json:"spec"`
	Shrunk         *scenario.Spec `json:"shrunk,omitempty"`
	ShrunkFindings []Finding      `json:"shrunk_findings,omitempty"`
	ShrinkRuns     int            `json:"shrink_runs,omitempty"`
}

// OracleCount is one oracle's failure tally, for the deterministic
// summary rendering (maps iterate in random order; reports must not).
type OracleCount struct {
	Oracle string `json:"oracle"`
	Count  int    `json:"count"`
}

// SoakState is a soak campaign's complete progress: the checkpoint
// written to disk, the value Soak returns, and the summary the CLI
// renders are all this one structure. It contains no clocks or
// hostnames, so interrupt + resume produces a state byte-identical to
// an uninterrupted campaign over the same batches.
type SoakState struct {
	Seed      int64          `json:"seed"`
	BatchRuns int            `json:"batch_runs"`
	Batches   int            `json:"batches"`
	Runs      int            `json:"runs"`
	Mutated   int            `json:"mutated"`
	Findings  []*SoakFinding `json:"findings,omitempty"`
	Oracles   []OracleCount  `json:"oracles,omitempty"`
}

// Soak runs a time-budgeted, checkpointed fuzzing campaign: batches of
// specs — fresh generations interleaved with mutants of the corpus pool
// — fanned through RunMany, audited by every oracle, failures shrunk
// and deduplicated by (oracle class, shrunk-spec hash). After each
// batch the full state is rewritten to opts.Checkpoint, so a multi-hour
// soak survives interruption and resumes exactly where it stopped:
// batch composition depends only on (Seed, batch index), making the
// resumed campaign's state byte-identical to an uninterrupted one.
func Soak(opts SoakOptions) (*SoakState, error) {
	if opts.BatchRuns <= 0 {
		opts.BatchRuns = 32
	}
	st := &SoakState{Seed: opts.Seed, BatchRuns: opts.BatchRuns}
	if opts.Checkpoint != "" {
		loaded, err := loadCheckpoint(opts.Checkpoint)
		if err != nil {
			return nil, err
		}
		if loaded != nil {
			if loaded.Seed != opts.Seed || loaded.BatchRuns != opts.BatchRuns {
				return nil, fmt.Errorf(
					"soak: checkpoint %s is a different campaign (seed %d, batch %d; want seed %d, batch %d)",
					opts.Checkpoint, loaded.Seed, loaded.BatchRuns, opts.Seed, opts.BatchRuns)
			}
			st = loaded
		}
	}
	if opts.MaxBatches == 0 && opts.Budget <= 0 {
		opts.MaxBatches = st.Batches + 1
	}
	start := time.Now()
	for {
		if opts.MaxBatches > 0 && st.Batches >= opts.MaxBatches {
			break
		}
		if opts.Budget > 0 && time.Since(start) >= opts.Budget {
			break
		}
		if err := soakBatch(&opts, st); err != nil {
			return st, err
		}
		if opts.Checkpoint != "" {
			if err := saveCheckpoint(opts.Checkpoint, st); err != nil {
				return st, err
			}
		}
		if opts.Log != nil {
			fmt.Fprintf(opts.Log, "soak: batch %d done — %d runs (%d mutated), %d unique findings\n",
				st.Batches, st.Runs, st.Mutated, len(st.Findings))
		}
	}
	return st, nil
}

// soakBatch composes and executes one batch. Composition is a pure
// function of (seed, batch index): each run flips a per-run coin
// between generating a fresh spec and mutating a pool spec.
func soakBatch(opts *SoakOptions, st *SoakState) error {
	batch := st.Batches
	frac := opts.MutateFrac
	if frac <= 0 {
		frac = 0.5
	}
	specs := make([]*scenario.Spec, opts.BatchRuns)
	origins := make([]string, opts.BatchRuns)
	seeds := make([]int64, opts.BatchRuns)
	mutated := 0
	for i := range specs {
		g := batch*opts.BatchRuns + i
		sg := DeriveSeed(opts.Seed, g)
		seeds[i] = sg
		r := newRNG(sg)
		if len(opts.MutationPool) > 0 && r.chance(frac) {
			base := opts.MutationPool[r.intn(len(opts.MutationPool))]
			specs[i] = Mutate(base, int64(r.next()))
			origins[i] = "mutated:" + base.Name
			mutated++
		} else {
			specs[i] = GenSpec(sg)
			origins[i] = "generated"
		}
	}
	reports, err := scenario.RunMany(specs, scenario.Options{Parallelism: opts.Parallelism})
	var runErrs []error
	if err != nil {
		// One broken spec must become a "run-error" finding — the exact
		// event the fuzzer exists to report — not a dead campaign: fall
		// back to serial execution, capturing per-spec errors. The serial
		// pass is deterministic, so the state stays a pure function of
		// the options.
		reports = make([]*scenario.Report, len(specs))
		runErrs = make([]error, len(specs))
		for i, s := range specs {
			reports[i], runErrs[i] = scenario.Run(s, scenario.Options{})
		}
	}
	tally := map[string]int{}
	for _, oc := range st.Oracles {
		tally[oc.Oracle] = oc.Count
	}
	for i, rep := range reports {
		var findings []Finding
		if rep == nil {
			detail := "run failed"
			if runErrs != nil && runErrs[i] != nil {
				detail = runErrs[i].Error()
			}
			findings = []Finding{{Oracle: "run-error", Detail: detail}}
		} else {
			findings = Check(specs[i], rep)
		}
		if len(findings) == 0 && opts.Differential {
			findings = CheckDifferential(specs[i])
		}
		if len(findings) == 0 {
			continue
		}
		for _, f := range findings {
			tally[f.Oracle]++
		}
		oracle := findings[0].Oracle
		res := Shrink(specs[i], oracle, opts.MaxShrinkRuns)
		key := oracle + ":" + specHash(res.Spec)
		if prev := findByKey(st.Findings, key); prev != nil {
			prev.Count++
			continue
		}
		st.Findings = append(st.Findings, &SoakFinding{
			Key:            key,
			Oracle:         oracle,
			Count:          1,
			FirstRun:       batch*opts.BatchRuns + i,
			SpecSeed:       seeds[i],
			Origin:         origins[i],
			Findings:       findings,
			Spec:           specs[i],
			Shrunk:         res.Spec,
			ShrunkFindings: res.Findings,
			ShrinkRuns:     res.Runs,
		})
	}
	st.Oracles = st.Oracles[:0]
	for oracle, n := range tally {
		st.Oracles = append(st.Oracles, OracleCount{Oracle: oracle, Count: n})
	}
	sort.Slice(st.Oracles, func(i, j int) bool { return st.Oracles[i].Oracle < st.Oracles[j].Oracle })
	if len(st.Oracles) == 0 {
		st.Oracles = nil
	}
	st.Runs += opts.BatchRuns
	st.Mutated += mutated
	st.Batches = batch + 1
	return nil
}

func findByKey(fs []*SoakFinding, key string) *SoakFinding {
	for _, f := range fs {
		if f.Key == key {
			return f
		}
	}
	return nil
}

// specHash fingerprints a spec's structure for finding deduplication,
// ignoring the identity fields (name, seed, description) that differ
// between runs converging on the same minimized shape.
func specHash(s *scenario.Spec) string {
	c := s.Clone()
	c.Name, c.Description, c.Seed = "", "", 0
	b, err := json.Marshal(c)
	if err != nil {
		return "unhashable"
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// loadCheckpoint reads a prior campaign state; (nil, nil) when the file
// does not exist yet.
func loadCheckpoint(path string) (*SoakState, error) {
	b, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("soak: read checkpoint: %w", err)
	}
	st := &SoakState{}
	if err := json.Unmarshal(b, st); err != nil {
		return nil, fmt.Errorf("soak: corrupt checkpoint %s: %w", path, err)
	}
	return st, nil
}

// saveCheckpoint atomically replaces the state file (write temp, rename)
// so an interrupt mid-write leaves the previous consistent state.
func saveCheckpoint(path string, st *SoakState) error {
	b, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return fmt.Errorf("soak: write checkpoint: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("soak: replace checkpoint: %w", err)
	}
	return nil
}

// LoadPool loads every *.json spec under the given directories, sorted
// by directory order then file name, as a soak mutation pool. A
// directory with no specs is fine; an unreadable or invalid spec is an
// error (a broken pool file should fail loudly, not shrink the pool).
func LoadPool(dirs ...string) ([]*scenario.Spec, error) {
	var pool []*scenario.Spec
	for _, dir := range dirs {
		paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
		if err != nil {
			return nil, err
		}
		sort.Strings(paths)
		for _, path := range paths {
			s, err := scenario.Load(path)
			if err != nil {
				return nil, fmt.Errorf("soak: pool spec %s: %w", path, err)
			}
			pool = append(pool, s)
		}
	}
	return pool, nil
}

// Print renders the human-readable campaign summary.
func (st *SoakState) Print(w io.Writer) {
	fmt.Fprintf(w, "soak: %d runs (%d mutated) across %d batches from seed %d — %d unique findings\n",
		st.Runs, st.Mutated, st.Batches, st.Seed, len(st.Findings))
	for _, oc := range st.Oracles {
		fmt.Fprintf(w, "  oracle %-18s %d findings\n", oc.Oracle, oc.Count)
	}
	for _, f := range st.Findings {
		fmt.Fprintf(w, "finding %s (%s, first run %d, seed %d, ×%d):\n",
			f.Key, f.Origin, f.FirstRun, f.SpecSeed, f.Count)
		for _, fd := range f.Findings {
			fmt.Fprintf(w, "  %s\n", fd)
		}
		if f.Shrunk != nil {
			fmt.Fprintf(w, "  shrunk to %d nodes, %d sources, %d faults in %d runs\n",
				len(f.Shrunk.Nodes), len(f.Shrunk.Sources), len(f.Shrunk.Faults), f.ShrinkRuns)
		}
	}
}
