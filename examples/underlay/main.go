// Underlay demonstrates the paper's §6 "Realistic topologies" open
// problem: overlay links are paths over shared physical links, so the
// overlay-only capacity model — the one the paper (and most overlay
// systems) analyzes — is optimistic.
package main

import (
	"fmt"
	"log"

	"ocd"
)

func main() {
	const (
		physVertices = 120
		hosts        = 16
	)
	fmt.Printf("physical transit-stub network of ~%d vertices; %d overlay hosts;\n",
		physVertices, hosts)
	fmt.Printf("each overlay link rides the shortest physical path\n\n")

	table, err := ocd.RunExperiment("underlay", map[string]string{
		"phys-n": fmt.Sprint(physVertices), "hosts": fmt.Sprint(hosts), "tokens": "48", "seed": "11",
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(table.ASCII())

	fmt.Println("The slowdown column is underlay-constrained turns over overlay-only")
	fmt.Println("turns. Oversubscribed physical links (the sharing factor in the")
	fmt.Println("title) make logical capacities dependent — exactly the modelling gap")
	fmt.Println("§6 calls out. Flooding heuristics suffer most: every duplicate")
	fmt.Println("delivery now burns shared wire.")
}
