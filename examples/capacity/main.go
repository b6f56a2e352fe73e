// Capacity planning: how much memory must a system have to hold 95 % of its
// fully provisioned throughput? This example reproduces the paper's
// Figure 9 question for an operator deciding between provisioning levels,
// and prints the resulting dollar savings from the Table 4 cost model.
//
//	go run ./examples/capacity
package main

import (
	"fmt"
	"log"

	"dismem/internal/experiments"
	"dismem/internal/metrics"
)

func main() {
	p := experiments.Quick()

	fmt.Println("Generating workload (50% large-memory jobs) and sweeping provisioning levels…")
	f8, err := experiments.RunFig8(p, nil)
	if err != nil {
		log.Fatal(err)
	}
	f9, err := experiments.Fig9FromFig8(f8, 0.95)
	if err != nil {
		log.Fatal(err)
	}

	fullCfg, err := experiments.MemConfigByPct(100)
	if err != nil {
		log.Fatal(err)
	}
	fullCost := metrics.SystemCostUSD(p.SystemNodes, fullCfg.TotalMemMB(p.SystemNodes))

	fmt.Printf("\n%-12s %-22s %-22s\n", "overest", "static needs", "dynamic needs")
	for _, pt := range f9.Points {
		fmt.Printf("+%-11.0f %-22s %-22s\n",
			pt.Overest*100, describe(p, pt.StaticPct, fullCost), describe(p, pt.DynamicPct, fullCost))
	}
	fmt.Printf("\nLargest provisioning gap (static − dynamic): %d percentage points\n", f9.MaxMemorySaving())
	fmt.Println("(paper: the dynamic policy reaches the threshold saving almost 40% more memory)")
}

func describe(p experiments.Preset, pct int, fullCost float64) string {
	if pct == 0 {
		return "unreachable"
	}
	mc, err := experiments.MemConfigByPct(pct)
	if err != nil {
		return "?"
	}
	cost := metrics.SystemCostUSD(p.SystemNodes, mc.TotalMemMB(p.SystemNodes))
	return fmt.Sprintf("%3d%% mem ($%.2fM, -%.0f%%)", pct, cost/1e6, (1-cost/fullCost)*100)
}
