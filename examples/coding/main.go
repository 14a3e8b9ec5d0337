// Coding demonstrates the paper's §6 "Encoding" open problem: under lossy
// channels, expanding each file into n coded tokens of which any k suffice
// lets knowledge-free senders finish without chasing specific lost tokens.
package main

import (
	"fmt"
	"log"

	"ocd"
)

func main() {
	// Coding matters in the regime where completion is gated by *which*
	// tokens survive loss rather than by raw capacity: a small overlay,
	// heavy loss, and a knowledge-free sender chasing its token cycle.
	const (
		vertices = 12
		tokens   = 32
		loss     = 0.4
	)
	fmt.Printf("single-source distribution of %d tokens over %d vertices, %.0f%% per-move loss\n\n",
		tokens, vertices, loss*100)

	table, err := ocd.RunExperiment("loss-coding", map[string]string{
		"n": fmt.Sprint(vertices), "tokens": fmt.Sprint(tokens), "loss": fmt.Sprint(loss),
		"redundancies": "1.25,1.5,2", "seed": "5",
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(table.ASCII())

	fmt.Println("The \"overhead\" column is n/k, the bandwidth price of redundancy;")
	fmt.Println("moderate redundancy beats both the uncoded scheme (which stalls on")
	fmt.Println("specific lost tokens) and heavy redundancy (which floods a larger")
	fmt.Println("token universe for no additional benefit).")
}
