// Command paperbench regenerates the tables of the paper's evaluation
// and of every study grown since: a loop over experiments.Studies.
//
//	paperbench list
//	paperbench [-platform name] [-scale f] [-seed n] <study>...
//
// Paper-scale operation counts run in virtual time but still take a
// while; -scale trades fidelity for speed (the tests use 0.008). A study
// of one fixed size (the phase studies on their small deployment, fig1,
// provisioning) says so when -scale was given and ignored.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/experiments"
)

func main() {
	platform := flag.String("platform", "", "platform preset (default: the study's first; see paperbench list)")
	scale := flag.Float64("scale", 0.02, "operation/record scale factor (1 = paper scale)")
	seed := flag.Uint64("seed", 1, "simulation seed")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: paperbench list | paperbench [-platform name] [-scale f] [-seed n] <study>...\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	scaleGiven := false
	flag.Visit(func(f *flag.Flag) { scaleGiven = scaleGiven || f.Name == "scale" })
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}
	if flag.Arg(0) == "list" {
		for _, s := range experiments.Studies {
			presets := "-"
			if len(s.Presets) > 0 {
				presets = strings.Join(s.PresetNames(), ",")
			}
			fmt.Printf("%-13s %-8s %s\n", s.Name, presets, s.Doc)
		}
		return
	}

	// Resolve every name before running anything: a typo in the last
	// study must not cost the minutes the first ones take.
	type job struct {
		study experiments.Study
		p     experiments.Platform
	}
	var jobs []job
	for _, name := range flag.Args() {
		s, err := experiments.FindStudy(name)
		if err != nil {
			fail(err)
		}
		p, err := s.Platform(*platform)
		if err != nil {
			fail(err)
		}
		jobs = append(jobs, job{s, p})
	}
	fmt.Printf("seed %d\n", *seed)
	for _, j := range jobs {
		fmt.Printf("\nstudy %s", j.study.Name)
		if p := j.p; p.Name != "" {
			fmt.Printf(" on %s: %d nodes, RF %d, %d client threads", p.Name, p.Nodes, p.RF, p.Threads)
		}
		switch {
		case j.study.Scales():
			fmt.Printf(", scale %.3f", *scale)
		case scaleGiven:
			fmt.Printf(" (one fixed size: -scale %g ignored)", *scale)
		}
		fmt.Println()
		for _, t := range j.study.Run(j.p, *scale, *seed) {
			t.Render(os.Stdout)
		}
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "paperbench: %v\n", err)
	os.Exit(2)
}
