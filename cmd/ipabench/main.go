// Command ipabench regenerates the paper's evaluation tables and
// figures. Each experiment builds the full stack (flash array → NoFTL →
// storage engine → workload) and prints the same rows the paper reports.
//
// Usage:
//
//	ipabench -exp table1          # one experiment
//	ipabench -exp all             # everything (slow)
//	ipabench -exp table9 -quick   # reduced scale
//	ipabench -list                # enumerate experiment ids
//
// With -net it instead acts as a TCP bench client against a running
// ipaserver, driving pipelined TPC-B transactions over the wire
// protocol:
//
//	ipabench -net 127.0.0.1:7070 -conns 16 -tx 500
package main

import (
	"flag"
	"fmt"
	"os"

	"ipa/internal/experiments"
)

var ids = []string{
	"table1", "table2", "table3", "table4", "table5", "table6",
	"table7", "table8", "table9", "table10", "table11",
	"fig1", "fig6", "fig7", "fig8", "fig9", "fig10", "longevity",
	"schemes", "htap", "repl",
}

func main() {
	exp := flag.String("exp", "", "experiment id (table1..table11, fig1, fig6..fig10, or 'all')")
	quick := flag.Bool("quick", false, "reduced scale for fast runs")
	list := flag.Bool("list", false, "list experiment ids")
	netAddr := flag.String("net", "", "bench a running ipaserver at this address instead of an experiment")
	conns := flag.Int("conns", 8, "client connections for -net")
	txPerConn := flag.Int("tx", 500, "transactions per connection for -net")
	seed := flag.Int64("seed", 42, "rng seed for -net")
	out := flag.String("out", "", "also write the experiment's JSON result to this file (schemes, htap and repl only)")
	flag.Parse()

	if *netAddr != "" {
		if err := runNet(*netAddr, *conns, *txPerConn, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "ipabench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *list {
		for _, id := range ids {
			fmt.Println(id)
		}
		return
	}
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "ipabench: -exp required (use -list for ids)")
		os.Exit(2)
	}
	p := experiments.Params{Quick: *quick}
	if *exp == "all" {
		out, err := experiments.All(p)
		fmt.Print(out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ipabench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *out != "" {
		var data []byte
		var table *experiments.Table
		var err error
		switch *exp {
		case "schemes":
			var rows []experiments.SchemeRow
			if rows, err = experiments.RunSchemes(p); err == nil {
				table = experiments.SchemesTable(rows)
				data, err = experiments.SchemesJSON(p, rows)
			}
		case "htap":
			var rows []experiments.HTAPRow
			if rows, err = experiments.RunHTAPBench(p); err == nil {
				table = experiments.HTAPTable(rows)
				data, err = experiments.HTAPJSON(p, rows)
			}
		case "repl":
			var rows []experiments.ReplRow
			var sum *experiments.ReplSummary
			if rows, sum, err = experiments.RunReplBench(p); err == nil {
				table = experiments.ReplTable(rows, sum)
				data, err = experiments.ReplJSON(p, rows, sum)
			}
		default:
			fmt.Fprintln(os.Stderr, "ipabench: -out is only supported with -exp schemes, htap or repl")
			os.Exit(2)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "ipabench: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "ipabench: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(table.Render())
		fmt.Printf("wrote %s\n", *out)
		return
	}
	t, err := experiments.ByID(*exp, p)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ipabench: %v\n", err)
		os.Exit(1)
	}
	fmt.Print(t.Render())
}
