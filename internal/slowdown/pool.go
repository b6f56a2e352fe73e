package slowdown

import "math"

// Sensitivity-curve archetypes. Real profiles (Zacarias CF'20) were measured
// with memory-bandwidth microbenchmark co-runners; we reproduce the three
// qualitative shapes reported there: bandwidth-bound apps degrade early and
// hard, balanced apps degrade smoothly past ~50 % fabric load, and
// compute-bound apps barely notice contention.
var (
	// CurveStream models a bandwidth-bound streaming app.
	CurveStream = Curve{{0, 0.30}, {0.25, 0.55}, {0.5, 1.0}, {0.75, 1.8}, {1.0, 2.8}, {1.5, 4.5}}
	// CurveBalanced models a mixed compute/memory app.
	CurveBalanced = Curve{{0, 0.12}, {0.25, 0.20}, {0.5, 0.40}, {0.75, 0.80}, {1.0, 1.4}, {1.5, 2.4}}
	// CurveCompute models a cache-friendly compute-bound app.
	CurveCompute = Curve{{0, 0.03}, {0.5, 0.08}, {1.0, 0.25}, {1.5, 0.5}}
)

// DefaultPool returns the pool of profiled applications used to match trace
// jobs by (size, runtime) similarity. The pool spans the job-size range of
// the paper's traces (1–128 nodes) and runtimes from minutes to days, with
// the three sensitivity archetypes interleaved so matched slowdown behaviour
// varies across the workload. Bandwidth figures are per node in GB/s,
// typical of the DDR4-era systems the paper targets.
func DefaultPool() []*Profile {
	type seed struct {
		name    string
		nodes   int
		runtime float64
		bw      float64
		read    float64
		sens    Curve
	}
	seeds := []seed{
		{"stream-tri", 1, 1800, 11.0, 0.67, CurveStream},
		{"fft-3d", 2, 3600, 9.5, 0.55, CurveStream},
		{"cfd-implicit", 4, 14400, 8.0, 0.6, CurveBalanced},
		{"md-lj", 4, 7200, 3.5, 0.7, CurveCompute},
		{"spmv-krylov", 8, 10800, 10.0, 0.8, CurveStream},
		{"qmc-walker", 8, 43200, 2.0, 0.75, CurveCompute},
		{"climate-dyn", 16, 86400, 6.5, 0.6, CurveBalanced},
		{"lattice-qcd", 16, 172800, 7.5, 0.5, CurveBalanced},
		{"adaptive-mesh", 32, 21600, 5.0, 0.65, CurveBalanced},
		{"nbody-tree", 32, 86400, 4.0, 0.7, CurveCompute},
		{"seismic-rtm", 64, 43200, 9.0, 0.55, CurveStream},
		{"dense-lu", 64, 14400, 6.0, 0.5, CurveBalanced},
		{"graph-bfs", 128, 7200, 10.5, 0.9, CurveStream},
		{"mc-transport", 128, 259200, 1.5, 0.8, CurveCompute},
		{"ocean-circ", 96, 129600, 5.5, 0.6, CurveBalanced},
		{"pde-mg", 24, 28800, 7.0, 0.6, CurveBalanced},
		{"bio-seq", 2, 86400, 1.0, 0.85, CurveCompute},
		{"vis-render", 1, 600, 4.5, 0.7, CurveCompute},
		{"kv-analytics", 48, 3600, 8.5, 0.75, CurveStream},
		{"sparse-chol", 12, 57600, 6.8, 0.55, CurveBalanced},
	}
	pool := make([]*Profile, len(seeds))
	for i, s := range seeds {
		pool[i] = &Profile{
			Name:         s.name,
			Nodes:        s.nodes,
			RuntimeSec:   s.runtime,
			BandwidthGBs: s.bw,
			ReadFrac:     s.read,
			Sens:         s.sens,
		}
	}
	return pool
}

// Matcher assigns trace jobs to the nearest profiled application by the
// Euclidean distance of log-scaled (size, runtime), as in the paper's Step 3.
// Log scaling is used because both size and runtime span several orders of
// magnitude; without it runtime would dominate the distance entirely.
type Matcher struct {
	pool []*Profile
	logs []profileLogs // logs[i] is pool[i]'s side of the distance
}

// profileLogs is log2(Nodes+1) and log2(RuntimeSec+1) of one profile, its
// side of the match distance, computed once when the matcher is built.
type profileLogs struct {
	nodes, runtime float64
}

// NewMatcher returns a matcher over the given pool (DefaultPool if nil). It
// reads each profile's size and runtime once, here.
func NewMatcher(pool []*Profile) *Matcher {
	if pool == nil {
		pool = DefaultPool()
	}
	logs := make([]profileLogs, len(pool))
	for i, p := range pool {
		logs[i] = profileLogs{math.Log2(float64(p.Nodes) + 1), math.Log2(p.RuntimeSec + 1)}
	}
	return &Matcher{pool: pool, logs: logs}
}

// Pool returns the matcher's profile pool.
func (m *Matcher) Pool() []*Profile { return m.pool }

// Match returns the profile nearest to a job with the given node count and
// runtime. Ties break toward the earlier pool entry for determinism.
func (m *Matcher) Match(nodes int, runtimeSec float64) *Profile {
	logNodes, logRuntime := math.Log2(float64(nodes)+1), math.Log2(runtimeSec+1)
	best := 0
	bestD := math.Inf(1)
	for i, l := range m.logs {
		dn := logNodes - l.nodes
		dr := logRuntime - l.runtime
		if d := dn*dn + dr*dr; d < bestD {
			bestD = d
			best = i
		}
	}
	return m.pool[best]
}
