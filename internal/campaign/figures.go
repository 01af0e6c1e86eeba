package campaign

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/bugs"
	"repro/internal/oracle"
)

// Table is a simple text table used to render the paper's figures.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title + "\n")
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteString("\n")
	}
	writeRow(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteString("\n")
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// compilerOrder is the paper's column order.
var compilerOrder = []string{"groovyc", "kotlinc", "javac"}

// DiffSummary renders the differential oracle's findings: one row per
// distinct disagreement, sorted by ID, with the suspect attribution and
// the input kinds that hit it.
func (r *Report) DiffSummary() *Table {
	t := &Table{
		Title:  fmt.Sprintf("Differential oracle: %d distinct disagreements", len(r.Disagreements)),
		Header: []string{"Suspect", "Source", "Vector", "Found by", "First seed", "Hits"},
	}
	ids := make([]string, 0, len(r.Disagreements))
	for id := range r.Disagreements {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		rec := r.Disagreements[id]
		source := "compilers"
		if rec.Translators {
			source = "translators"
		}
		var kinds []string
		for _, k := range rec.FoundBy.Kinds() {
			kinds = append(kinds, k.String())
		}
		sort.Strings(kinds)
		t.Rows = append(t.Rows, []string{
			suspectLabel(rec.Suspects), source, rec.Vector,
			strings.Join(kinds, ","), fmt.Sprint(rec.FirstSeed), fmt.Sprint(rec.Hits),
		})
	}
	return t
}

// DiffPairs renders the compiler×compiler conflict matrix — the
// paper's Fig. 8 version matrix generalized to compiler pairs — as one
// row per unordered pair with a nonzero conflict count.
func (r *Report) DiffPairs() *Table {
	t := &Table{
		Title:  "Cross-compiler disagreement matrix",
		Header: []string{"Pair", "Conflicts"},
	}
	pairs := make([]string, 0, len(r.DiffMatrix))
	for p := range r.DiffMatrix {
		pairs = append(pairs, p)
	}
	sort.Strings(pairs)
	for _, p := range pairs {
		t.Rows = append(t.Rows, []string{strings.Replace(p, "|", " vs ", 1), fmt.Sprint(r.DiffMatrix[p])})
	}
	return t
}

// Figure7a reports the status of found bugs per compiler (Figure 7a).
func (r *Report) Figure7a() *Table {
	statuses := []bugs.Status{bugs.Reported, bugs.Confirmed, bugs.Fixed, bugs.Duplicate, bugs.WontFix}
	t := &Table{
		Title:  "Figure 7a: status of the found bugs",
		Header: []string{"Status", "groovyc", "kotlinc", "javac", "Total"},
	}
	counts := map[bugs.Status]map[string]int{}
	for _, rec := range r.Found {
		if counts[rec.Bug.Status] == nil {
			counts[rec.Bug.Status] = map[string]int{}
		}
		counts[rec.Bug.Status][rec.Bug.Compiler]++
	}
	totals := map[string]int{}
	for _, s := range statuses {
		row := []string{s.String()}
		sum := 0
		for _, c := range compilerOrder {
			n := counts[s][c]
			totals[c] += n
			sum += n
			row = append(row, fmt.Sprint(n))
		}
		row = append(row, fmt.Sprint(sum))
		t.Rows = append(t.Rows, row)
	}
	total := []string{"Total"}
	sum := 0
	for _, c := range compilerOrder {
		total = append(total, fmt.Sprint(totals[c]))
		sum += totals[c]
	}
	total = append(total, fmt.Sprint(sum))
	t.Rows = append(t.Rows, total)
	return t
}

// Figure7b reports the symptoms of found bugs per compiler (Figure 7b).
func (r *Report) Figure7b() *Table {
	symptoms := []bugs.Symptom{bugs.UCTE, bugs.URB, bugs.Crash}
	t := &Table{
		Title:  "Figure 7b: symptoms of the found bugs",
		Header: []string{"Symptom", "groovyc", "kotlinc", "javac", "Total"},
	}
	counts := map[bugs.Symptom]map[string]int{}
	for _, rec := range r.Found {
		if counts[rec.Bug.Symptom] == nil {
			counts[rec.Bug.Symptom] = map[string]int{}
		}
		counts[rec.Bug.Symptom][rec.Bug.Compiler]++
	}
	for _, s := range symptoms {
		row := []string{s.String()}
		sum := 0
		for _, c := range compilerOrder {
			n := counts[s][c]
			sum += n
			row = append(row, fmt.Sprint(n))
		}
		row = append(row, fmt.Sprint(sum))
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Figure7c reports technique attribution per compiler (Figure 7c).
func (r *Report) Figure7c() *Table {
	t := &Table{
		Title:  "Figure 7c: bugs revealed per technique",
		Header: []string{"Component", "groovyc", "kotlinc", "javac", "Total"},
	}
	techniques := []string{"Generator", "TEM", "TOM", "TEM & TOM", "REM"}
	counts := map[string]map[string]int{}
	for _, rec := range r.Found {
		tech := rec.Technique()
		if counts[tech] == nil {
			counts[tech] = map[string]int{}
		}
		counts[tech][rec.Bug.Compiler]++
	}
	// Synthesized appears only in -synth campaigns; the row is added
	// conditionally so generator-only tables keep their historical shape.
	if len(counts["Synthesized"]) > 0 {
		techniques = append(techniques, "Synthesized")
	}
	for _, tech := range techniques {
		row := []string{tech}
		sum := 0
		for _, c := range compilerOrder {
			n := counts[tech][c]
			sum += n
			row = append(row, fmt.Sprint(n))
		}
		row = append(row, fmt.Sprint(sum))
		t.Rows = append(t.Rows, row)
	}
	return t
}

// figure8Buckets are the x-axis buckets of Figure 8.
var figure8Buckets = []struct {
	label  string
	lo, hi int
}{
	{"[1-3]", 1, 3},
	{"[4-6]", 4, 6},
	{"[7-9]", 7, 9},
	{"[10-12]", 10, 12},
	{">12", 13, 1 << 30},
}

// Figure8 histograms found bugs by the number of stable versions they
// affect (Figure 8). stableVersions maps compiler → its stable count.
func (r *Report) Figure8(stableVersions map[string]int) *Table {
	t := &Table{
		Title:  "Figure 8: number of bugs by affected stable versions",
		Header: []string{"Affected", "groovyc", "kotlinc", "javac"},
	}
	bucketOf := func(rec *BugRecord) string {
		stable := stableVersions[rec.Bug.Compiler]
		n := rec.Bug.AffectedStableCount(stable)
		switch {
		case n == 0:
			return "master only"
		case n == stable:
			return "All"
		}
		for _, b := range figure8Buckets {
			if n >= b.lo && n <= b.hi {
				return b.label
			}
		}
		return ">12"
	}
	counts := map[string]map[string]int{}
	for _, rec := range r.Found {
		label := bucketOf(rec)
		if counts[label] == nil {
			counts[label] = map[string]int{}
		}
		counts[label][rec.Bug.Compiler]++
	}
	labels := []string{"[1-3]", "[4-6]", "[7-9]", "[10-12]", ">12", "All", "master only"}
	for _, label := range labels {
		row := []string{label}
		for _, c := range compilerOrder {
			row = append(row, fmt.Sprint(counts[label][c]))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// CatalogTables renders the ground-truth catalogs as the three Figure 7
// tables — the values a fully saturated campaign converges to, matching
// the paper's published numbers exactly.
func CatalogTables() (*Table, *Table, *Table) {
	specs := []bugs.CatalogSpec{bugs.GroovycSpec(), bugs.KotlincSpec(), bugs.JavacSpec()}
	a := &Table{
		Title:  "Figure 7a (ground truth): status of the seeded bugs",
		Header: []string{"Status", "groovyc", "kotlinc", "javac", "Total"},
	}
	rowsA := []struct {
		name string
		get  func(bugs.CatalogSpec) int
	}{
		{"Reported", func(s bugs.CatalogSpec) int { return s.Reported }},
		{"Confirmed", func(s bugs.CatalogSpec) int { return s.Confirmed }},
		{"Fixed", func(s bugs.CatalogSpec) int { return s.Fixed }},
		{"Duplicate", func(s bugs.CatalogSpec) int { return s.Duplicate }},
		{"Won't fix", func(s bugs.CatalogSpec) int { return s.WontFix }},
		{"Total", func(s bugs.CatalogSpec) int { return s.Total() }},
	}
	for _, r := range rowsA {
		row := []string{r.name}
		sum := 0
		for _, s := range specs {
			row = append(row, fmt.Sprint(r.get(s)))
			sum += r.get(s)
		}
		a.Rows = append(a.Rows, append(row, fmt.Sprint(sum)))
	}

	b := &Table{
		Title:  "Figure 7b (ground truth): symptoms of the seeded bugs",
		Header: []string{"Symptom", "groovyc", "kotlinc", "javac", "Total"},
	}
	rowsB := []struct {
		name string
		get  func(bugs.CatalogSpec) int
	}{
		{"UCTE", func(s bugs.CatalogSpec) int { return s.UCTE }},
		{"URB", func(s bugs.CatalogSpec) int { return s.URB }},
		{"Crash", func(s bugs.CatalogSpec) int { return s.Crash }},
	}
	for _, r := range rowsB {
		row := []string{r.name}
		sum := 0
		for _, s := range specs {
			row = append(row, fmt.Sprint(r.get(s)))
			sum += r.get(s)
		}
		b.Rows = append(b.Rows, append(row, fmt.Sprint(sum)))
	}

	c := &Table{
		Title:  "Figure 7c (ground truth): technique attribution of the seeded bugs",
		Header: []string{"Component", "groovyc", "kotlinc", "javac", "Total"},
	}
	rowsC := []struct {
		name string
		get  func(bugs.CatalogSpec) int
	}{
		{"Generator", func(s bugs.CatalogSpec) int { return s.Generator }},
		{"TEM", func(s bugs.CatalogSpec) int { return s.TEM }},
		{"TOM", func(s bugs.CatalogSpec) int { return s.TOM }},
		{"TEM & TOM", func(s bugs.CatalogSpec) int { return s.Combined }},
	}
	for _, r := range rowsC {
		row := []string{r.name}
		sum := 0
		for _, s := range specs {
			row = append(row, fmt.Sprint(r.get(s)))
			sum += r.get(s)
		}
		c.Rows = append(c.Rows, append(row, fmt.Sprint(sum)))
	}
	return a, b, c
}

// VerdictSummary renders oracle outcomes per compiler and input kind.
func (r *Report) VerdictSummary() *Table {
	t := &Table{
		Title:  "Oracle verdicts",
		Header: []string{"Compiler", "Input", "pass", "UCTE", "URB", "crash", "hang"},
	}
	var comps []string
	for c := range r.Verdicts {
		comps = append(comps, c)
	}
	sort.Strings(comps)
	kinds := []oracle.InputKind{oracle.Generated, oracle.TEMMutant, oracle.TOMMutant, oracle.TEMTOMMutant, oracle.REMMutant}
	for _, c := range comps {
		for _, k := range kinds {
			v := r.Verdicts[c][k]
			if v == nil {
				continue
			}
			t.Rows = append(t.Rows, []string{
				c, k.String(),
				fmt.Sprint(v[oracle.Pass]),
				fmt.Sprint(v[oracle.UnexpectedCompileTimeError]),
				fmt.Sprint(v[oracle.UnexpectedAcceptance]),
				fmt.Sprint(v[oracle.CompilerCrash]),
				fmt.Sprint(v[oracle.CompilerHang]),
			})
		}
	}
	return t
}
