// Command benchharness runs the paper-reproduction experiment suite
// (E1-E12, E14 and E16-E19, see DESIGN.md §4 and EXPERIMENTS.md) and
// prints one report line per experiment. It exits non-zero if any
// experiment fails. It measures nothing: what a mediated flow costs is
// the benchmark's question (go run ./bench, see bench/README.md).
package main

import (
	"fmt"
	"os"

	"starlink/internal/harness"
)

func main() {
	fmt.Println("Starlink experiment harness — MIDDLEWARE 2011 reproduction")
	fmt.Println()
	failures := 0
	for _, r := range harness.RunAll() {
		fmt.Println(r.String())
		if !r.OK() {
			failures++
		}
	}
	fmt.Println()
	if failures > 0 {
		fmt.Printf("%d experiment(s) FAILED\n", failures)
		os.Exit(1)
	}
	fmt.Println("all experiments passed")
}
