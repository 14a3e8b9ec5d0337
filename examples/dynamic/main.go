// Dynamic demonstrates the paper's §6 "Changing network conditions" open
// problem: the same file distribution run under static capacities, cross
// traffic, link failures, node churn, and a possession-aware adversary.
package main

import (
	"fmt"
	"log"

	"ocd"
)

func main() {
	table, err := ocd.RunExperiment("dynamic-conditions", map[string]string{
		"n": "40", "tokens": "32", "seed": "21",
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(table.ASCII())

	fmt.Println("Reading the table: \"moves\" are turns (the paper's §5 usage);")
	fmt.Println("every condition slows distribution down relative to the static row,")
	fmt.Println("and the reactive heuristics route around failures and churn because")
	fmt.Println("they re-plan from current possession every turn.")
}
