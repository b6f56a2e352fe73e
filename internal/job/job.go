// Package job defines the static description of a job as it enters the
// simulator: the submission-script fields a scheduler sees (submit time,
// node count, memory request, wallclock limit) plus the behind-the-scenes
// ground truth the simulator needs (true runtime, memory-usage trace,
// matched application profile).
package job

import (
	"errors"
	"fmt"

	"dismem/internal/memtrace"
	"dismem/internal/slowdown"
)

// Job is one trace entry. Fields above the comment are visible to the
// resource manager; fields below are simulation ground truth only.
type Job struct {
	ID         int
	SubmitTime float64 // seconds from simulation start
	Nodes      int     // number of (exclusive) compute nodes
	RequestMB  int64   // requested memory per node, from the submission script
	LimitSec   float64 // requested wallclock limit
	// DependsOn names a job that must complete before this one becomes
	// schedulable (SWF's "Preceding Job Number"; 0 = no dependency).
	DependsOn int

	BaseRuntime float64           // true runtime at slowdown 1
	Usage       *memtrace.Trace   // per-node memory usage over base-runtime time
	Profile     *slowdown.Profile // matched application profile (simulation only)
}

// Validation errors.
var ErrInvalid = errors.New("job: invalid")

// Validate checks the job is well-formed for simulation.
func (j *Job) Validate() error {
	switch {
	case j.Nodes <= 0:
		return fmt.Errorf("%w: job %d has %d nodes", ErrInvalid, j.ID, j.Nodes)
	case j.RequestMB < 0:
		return fmt.Errorf("%w: job %d has negative request", ErrInvalid, j.ID)
	case j.SubmitTime < 0:
		return fmt.Errorf("%w: job %d has negative submit time", ErrInvalid, j.ID)
	case j.BaseRuntime <= 0:
		return fmt.Errorf("%w: job %d has non-positive runtime", ErrInvalid, j.ID)
	case j.LimitSec < j.BaseRuntime:
		return fmt.Errorf("%w: job %d limit %g below runtime %g", ErrInvalid, j.ID, j.LimitSec, j.BaseRuntime)
	case j.Usage == nil:
		return fmt.Errorf("%w: job %d has no usage trace", ErrInvalid, j.ID)
	case j.Profile == nil:
		return fmt.Errorf("%w: job %d has no profile", ErrInvalid, j.ID)
	case j.DependsOn == j.ID && j.ID != 0:
		return fmt.Errorf("%w: job %d depends on itself", ErrInvalid, j.ID)
	case j.DependsOn < 0:
		return fmt.Errorf("%w: job %d has negative dependency", ErrInvalid, j.ID)
	}
	return nil
}

// TotalRequestMB returns the job's total memory request across its nodes.
func (j *Job) TotalRequestMB() int64 { return int64(j.Nodes) * j.RequestMB }

// PeakUsageMB returns the true per-node peak from the usage trace.
func (j *Job) PeakUsageMB() int64 { return j.Usage.Peak() }

// NodeHours returns the job's size·runtime product in node-hours, the
// utilisation currency used throughout the paper's methodology.
func (j *Job) NodeHours() float64 {
	return float64(j.Nodes) * j.BaseRuntime / 3600
}
