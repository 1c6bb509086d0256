// Command spanql evaluates document-spanner queries on documents.
//
// Usage:
//
//	spanql -pattern '!x{[a-z]+}=!v{[0-9]+}' -text 'k=12' [-mode eval]
//	spanql -pattern '...' -file doc.txt -mode count
//	spanql -pattern '...' -text '...' -mode check -tuple 'x=1:3,v=4:6'
//	spanql -pattern '...' -mode analyze
//	spanql -pattern '...' -lint
//	spanql -pattern '...' -explain
//
// Modes:
//
//	eval     print every result tuple with span contents (default)
//	count    print the number of result tuples
//	check    decide membership of -tuple (ModelChecking)
//	nonempty decide whether the result is non-empty
//	analyze  static analysis: satisfiability, witness, hierarchicality
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"docspanner"
)

func main() {
	var (
		pattern    = flag.String("pattern", "", "spanner pattern (required)")
		text       = flag.String("text", "", "document text")
		file       = flag.String("file", "", "document file")
		alphabet   = flag.String("alphabet", "", "document alphabet (default: inferred)")
		mode       = flag.String("mode", "eval", "eval | count | check | nonempty | analyze")
		tuple      = flag.String("tuple", "", "tuple for -mode check, e.g. x=1:3,y=4:6")
		limit      = flag.Int("limit", 0, "stop after this many tuples (0 = all)")
		schemaless = flag.Bool("schemaless", false, "allow partial tuples")
		compressed = flag.Bool("compressed", false, "evaluate over the SLP-compressed document")
		dot        = flag.Bool("dot", false, "print the spanner automaton in Graphviz DOT format and exit")
		lint       = flag.Bool("lint", false, "run spanlint on the compiled spanner and exit (status 1 on warnings or errors)")
		explain    = flag.Bool("explain", false, "print the execution plan (logical shape, rewrites applied, physical backend per node) and exit")
	)
	flag.Parse()
	if strings.TrimSpace(*pattern) == "" {
		usageError("-pattern is required and must be non-blank")
	}

	opts := docspanner.Options{Schemaless: *schemaless}
	if *alphabet != "" {
		opts.Alphabet = []byte(*alphabet)
	}
	s, err := docspanner.Compile(*pattern, opts)
	if err != nil {
		fail(err)
	}

	if *dot {
		fmt.Print(s.Dot())
		return
	}

	if *explain {
		fmt.Print(s.Explain())
		return
	}

	if *lint {
		ds := s.Lint()
		if len(ds) == 0 {
			fmt.Println("spanql: lint clean")
			return
		}
		bad := false
		for _, d := range ds {
			fmt.Println(d)
			if d.Severity >= docspanner.SeverityWarning {
				bad = true
			}
		}
		if bad {
			os.Exit(1)
		}
		return
	}

	if *mode == "analyze" {
		fmt.Printf("pattern:      %s\n", s.Pattern())
		fmt.Printf("variables:    %v\n", s.Vars())
		fmt.Printf("regular:      %v\n", s.IsRegular())
		fmt.Printf("satisfiable:  %v\n", s.Satisfiable())
		if doc, t, ok := s.Witness(); ok {
			fmt.Printf("witness:      %q with %v\n", doc, t)
		}
		if s.IsRegular() {
			h, _ := s.Hierarchical()
			fmt.Printf("hierarchical: %v\n", h)
		}
		return
	}

	if *text == "" && *file == "" && !textFlagSet() {
		// Evaluation modes need a document; exiting 0 here would hide the
		// mistake from scripts, so it is a usage error like -pattern.
		usageError(fmt.Sprintf("-mode %s needs a document: provide -text or -file", *mode))
	}
	doc, err := loadDoc(*text, *file)
	if err != nil {
		fail(err)
	}

	switch *mode {
	case "eval":
		n := 0
		emit := func(t docspanner.Tuple) bool {
			n++
			parts := make([]string, 0, len(t))
			for _, v := range t.Vars() {
				parts = append(parts, fmt.Sprintf("%s=%v %q", v, t[v], t[v].Content(doc)))
			}
			fmt.Println(strings.Join(parts, "  "))
			return *limit == 0 || n < *limit
		}
		if *compressed {
			ix, err := s.Index()
			if err != nil {
				fail(err)
			}
			d := docspanner.CompressDocument(doc)
			fmt.Fprintf(os.Stderr, "spanql: compressed %d bytes to %d SLP nodes\n", d.Len(), d.GrammarSize())
			ix.Enumerate(d, emit)
		} else {
			s.Enumerate(doc, emit)
		}
		fmt.Fprintf(os.Stderr, "spanql: %d tuple(s)\n", n)
	case "count":
		if *compressed {
			ix, err := s.Index()
			if err != nil {
				fail(err)
			}
			fmt.Println(ix.ExactCount(docspanner.CompressDocument(doc)))
		} else {
			c, err := s.ExactCount(doc)
			if err != nil {
				// Refl-spanners: fall back to enumeration.
				fmt.Println(s.Count(doc))
				return
			}
			fmt.Println(c)
		}
	case "nonempty":
		fmt.Println(s.NonEmpty(doc))
	case "check":
		t, err := parseTuple(*tuple)
		if err != nil {
			fail(err)
		}
		ok, err := s.ModelCheck(doc, t)
		if err != nil {
			fail(err)
		}
		fmt.Println(ok)
	default:
		fail(fmt.Errorf("unknown mode %q", *mode))
	}
}

// textFlagSet reports whether -text was given explicitly (an explicit
// -text "" means the empty document, which is a legitimate input).
func textFlagSet() bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "text" {
			set = true
		}
	})
	return set
}

func loadDoc(text, file string) ([]byte, error) {
	if file != "" {
		return os.ReadFile(file)
	}
	return []byte(text), nil
}

// parseTuple parses x=1:3,y=4:6 into a span tuple.
func parseTuple(src string) (docspanner.Tuple, error) {
	t := docspanner.Tuple{}
	if src == "" {
		return t, nil
	}
	for _, part := range strings.Split(src, ",") {
		kv := strings.SplitN(part, "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("spanql: bad tuple component %q", part)
		}
		var b, e int
		if _, err := fmt.Sscanf(kv[1], "%d:%d", &b, &e); err != nil {
			return nil, fmt.Errorf("spanql: bad span %q (want begin:end)", kv[1])
		}
		t[docspanner.Var(strings.TrimSpace(kv[0]))] = docspanner.NewSpan(b, e)
	}
	return t, nil
}

func usageError(msg string) {
	fmt.Fprintln(os.Stderr, "spanql:", msg)
	flag.Usage()
	os.Exit(2)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "spanql:", err)
	os.Exit(1)
}
