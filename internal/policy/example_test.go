package policy_test

import (
	"fmt"

	"dismem/internal/cluster"
	"dismem/internal/job"
	"dismem/internal/policy"
)

// A 1500 MB request on 1000 MB nodes: the static policy fills the compute
// node's local memory and borrows the deficit from the most-free lender.
func ExamplePolicy_place() {
	cl := cluster.New(3, 32, 1000)
	pol := policy.New(policy.Static, policy.Order{})
	alloc, ok := pol.Place(cl, &job.Job{ID: 1, Nodes: 1, RequestMB: 1500})
	fmt.Println("placed:", ok,
		"local:", alloc.PerNode[0].LocalMB,
		"remote:", alloc.PerNode[0].RemoteMB())
	// Output: placed: true local: 1000 remote: 500
}

// The Decider/Actuator resize: shrinking to the observed 800 MB usage
// returns the remote lease first (remote memory is the expensive kind),
// then trims local memory.
func ExampleAdjust() {
	cl := cluster.New(3, 32, 1000)
	pol := policy.New(policy.Dynamic, policy.Order{})
	alloc, _ := pol.Place(cl, &job.Job{ID: 1, Nodes: 1, RequestMB: 1500})

	_ = policy.Adjust(cl, alloc, 0, 800)
	fmt.Println("local:", alloc.PerNode[0].LocalMB,
		"remote:", alloc.PerNode[0].RemoteMB(),
		"pool free:", cl.TotalFreeMB())
	// Output: local: 800 remote: 0 pool free: 2200
}
