package swf

import "dismem/internal/job"

// FromJobs converts simulator jobs to SWF records. Processors = nodes ×
// coresPerNode; memory fields are KB per processor, so the per-node request
// is divided across the node's cores as the standard requires.
func FromJobs(jobs []*job.Job, coresPerNode int, header ...string) *File {
	f := &File{Header: header}
	for _, j := range jobs {
		procs := j.Nodes * coresPerNode
		perProcKB := j.RequestMB * 1024 / int64(coresPerNode)
		usedKB := j.PeakUsageMB() * 1024 / int64(coresPerNode)
		preceding := -1
		if j.DependsOn != 0 {
			preceding = j.DependsOn
		}
		f.Records = append(f.Records, Record{
			JobID:          j.ID,
			SubmitTime:     j.SubmitTime,
			WaitTime:       -1,
			RunTime:        j.BaseRuntime,
			AllocProcs:     procs,
			AvgCPUTime:     -1,
			UsedMemKB:      usedKB,
			ReqProcs:       procs,
			ReqTime:        j.LimitSec,
			ReqMemKB:       perProcKB,
			Status:         StatusUnknown,
			UserID:         -1,
			GroupID:        -1,
			ExecutableID:   -1,
			QueueID:        -1,
			PartitionID:    -1,
			PrecedingJobID: preceding,
			ThinkTime:      -1,
		})
	}
	return f
}
