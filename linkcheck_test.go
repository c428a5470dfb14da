package vzlens

import (
	"bufio"
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// linkAllowed is a production function under internal/ that no binary
// links but that stays, with the reason it stays. Category is one of:
//
//   - parser: an archive parser, kept for reading real archives;
//   - sources: world.BuildWithSources, the loader-backed world build;
//   - reference: a reference implementation a differential test
//     compares the production path against;
//   - test hook: a function tests in another package call.
type linkAllowed struct {
	category, reason string
}

var linkCategories = map[string]bool{
	"parser": true, "sources": true, "reference": true, "test hook": true,
}

// linkAllowlist is keyed by the function's package path below internal/
// and its name, a method as Type.Method: "stats.Median",
// "facts.Lake.Build".
var linkAllowlist = map[string]linkAllowed{
	// The archive readers: vzlens reads its inputs from the synthetic
	// world today, and these parse the real archives' formats.
	"aspop.Parse":                 {"parser", "reads the asn|users|cc|name population table vzgen writes"},
	"atlas.ParseResultsJSON":      {"parser", "reads RIPE Atlas CHAOS and traceroute result streams"},
	"atlas.letterFromMsmID":       {"parser", "ParseResultsJSON maps a built-in measurement ID to its root letter"},
	"atlas.timeFromUnix":          {"parser", "ParseResultsJSON decodes result timestamps"},
	"atlas.NewChaosCampaign":      {"parser", "ParseResultsJSON assembles its CHAOS campaign row by row"},
	"atlas.ChaosCampaign.Add":     {"parser", "ParseResultsJSON appends each CHAOS result"},
	"atlas.ChaosCampaign.builder": {"parser", "ChaosCampaign.Add's per-month builder"},
	"atlas.NewTraceCampaign":      {"parser", "ParseResultsJSON assembles its trace campaign row by row"},
	"atlas.TraceCampaign.Add":     {"parser", "ParseResultsJSON appends each traceroute sample"},
	"atlas.TraceCampaign.builder": {"parser", "TraceCampaign.Add's per-month builder"},
	"atlas.ParseProbesJSON":       {"parser", "reads RIPE Atlas probe archive documents"},
	"bgp.ParseOrgMap":             {"parser", "reads asn|name|cc|org AS-to-organization files"},
	"bgp.ParseGraph":              {"parser", "reads CAIDA serial-1 AS-relationship files"},
	"bgp.parseRelLine":            {"parser", "ParseGraph's line parser"},
	"bgp.ParseRIB":                {"parser", "reads RouteViews pfx2as files"},
	"ipv6.Parse":                  {"parser", "reads the per-country IPv6 adoption CSV vzgen writes"},
	"mlab.ParseJSON":              {"parser", "reads M-Lab NDT unified-view JSON lines"},
	"months.FromTime":             {"parser", "the Atlas parsers bucket timestamps into months"},
	"mrt.NewReader":               {"parser", "reads RouteViews MRT TABLE_DUMP_V2 RIBs"},
	"mrt.Reader.Next":             {"parser", "the MRT record iterator"},
	"mrt.Reader.parsePeerTable":   {"parser", "decodes the MRT PEER_INDEX_TABLE"},
	"mrt.parseRIBEntry":           {"parser", "decodes one MRT RIB entry"},
	"mrt.parseASPath":             {"parser", "decodes a BGP AS_PATH attribute"},
	"mrt.parsePathSegments":       {"parser", "decodes AS_PATH segments"},
	"mrt.ParseRIB":                {"parser", "folds an MRT RIB dump into a pfx2as table"},
	"mrt.Route.Origin":            {"parser", "ParseRIB takes each route's origin AS"},
	"peeringdb.Read":              {"parser", "reads CAIDA's PeeringDB JSON dumps"},
	"registry.Parse":              {"parser", "reads LACNIC extended delegation files"},
	"registry.ParseRecord":        {"parser", "Parse's line parser"},
	"registry.parseDate":          {"parser", "decodes delegation dates"},
	"telegeo.Parse":               {"parser", "reads the submarine-cable CSV interchange form"},

	"world.BuildWithSources": {"sources", "builds a world over external archive loaders, marking failed axes degraded"},

	// References the differential tests compare production paths with.
	"atlas.NewChaosPartition":              {"reference", "the string-keyed CHAOS partition coder the kernel's per-site coding is checked against"},
	"atlas.ChaosBuilder.Add":               {"reference", "the string-keyed row coder behind NewChaosPartition"},
	"atlas.TraceCampaign.CountryMeanNaive": {"reference", "the row-scan mean the partitioned trace analysis is checked against"},
	"atlas.Fleet.ActiveAt":                 {"reference", "the copied active-probe list the kernel's in-place class factoring is checked against"},
	"stats.Mean":                           {"reference", "CountryMeanNaive and mlab.Archive.Mean average with it"},
	"dnswire.Decode":                       {"reference", "the independent decoder the DNS plane's wire answers and the append-style builders are read back with"},
	"dnswire.readName":                     {"reference", "Decode's compression-safe name reader"},
	"dnswire.parseTXTData":                 {"reference", "Decode's TXT rdata reader"},
	"dnswire.FirstTXT":                     {"reference", "reads the answer of a Decoded reply in the DNS plane tests"},
	"dnswire.Message.Rcode":                {"reference", "a Decoded reply's rcode"},
	"dnswire.Message.IsResponse":           {"reference", "a Decoded reply's QR bit"},
	"dnswire.EncodeResponse":               {"reference", "the allocating encoder the codec round trips pair with Decode; it also builds the response packets the DNS plane must drop"},
	"netsim.Topology.PathLatencyMs":        {"reference", "the plain per-path latency the Resolver's tree latencies are checked against"},

	// Hooks tests in other packages call.
	"anomaly.Event.Months":              {"test hook", "core's signature tests measure event durations"},
	"atlas.ChaosCampaign.ProbesSeen":    {"test hook", "world's Appendix F test counts reporting probes"},
	"atlas.Fleet.ActiveIn":              {"test hook", "world, facts and the root benchmarks pick a country's active probes"},
	"dnsroot.Deployment.CountByCountry": {"test hook", "world's coverage tests and a root benchmark count instances per country"},
	"facts.Lake.Dir":                    {"test hook", "httpapi and integration tests corrupt and inspect lake files"},
	"faultio.Truncate":                  {"test hook", "the peeringdb and mlab fuzz seeds truncate valid inputs"},
	"faultio.Corrupt":                   {"test hook", "the peeringdb and mlab fuzz seeds flip bits in valid inputs"},
	"faultio.corruptReader.Read":        {"test hook", "the reader Corrupt returns"},
	"geo.AllCities":                     {"test hook", "dnsroot's name round-trip property draws from every city"},
	"httpapi.Handler.Lake":              {"test hook", "the integration soak test finds the lake a handler built"},
	"mlab.Archive.Mean":                 {"test hook", "the root package's mean-vs-median ablation benchmark"},
	"netsim.Resolver.PathInfoFrom":      {"test hook", "world's layout reference and the root benchmarks query single paths"},
	"netsim.Resolver.Tree":              {"test hook", "world's layout reference compares whole path trees"},
	"netsim.treeEntry.info":             {"test hook", "PathInfoFrom and Tree convert tree entries with it"},
	"netsim.Topology.CustomersOf":       {"test hook", "world's layout reference walks customer edges"},
	"obs.Histogram.Count":               {"test hook", "resultstore's tests count fsyncs"},
	"sweep.Manager.Kill":                {"test hook", "the sweep resume benchmark in the root package simulates a crash"},
}

// linkBuildFlags turns off inlining in the module's packages only, so
// every called function of vzlens keeps its own symbol.
const linkBuildFlags = "-gcflags=vzlens/...=-l"

// TestProductionCodeIsLinked builds every binary with the module's
// packages uninlined: every main of the root module, and vzbench, a
// module of its own, so the benchmark harness's contract (such as
// facts.Lake.Build) counts as linked. It lists their text symbols with
// go tool nm and fails with each production function under internal/
// that no binary links and that linkAllowlist does not name. It fails
// too on an allowlist entry that is linked or no longer declared, so
// the list shrinks with the code. It parses every non-test Go file of
// the repository itself, so an edit to any of them invalidates go
// test's cache.
func TestProductionCodeIsLinked(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every binary of the repository")
	}
	declared, mains := declaredFuncs(t)

	bin := t.TempDir()
	runGo(t, "", append([]string{"build", linkBuildFlags, "-o", bin + string(filepath.Separator)}, mains...)...)
	runGo(t, "cmd/vzbench", "build", linkBuildFlags, "-o", filepath.Join(bin, "vzbench"), ".")

	entries, err := os.ReadDir(bin)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(mains)+1 {
		t.Fatalf("built %d binaries, want %d", len(entries), len(mains)+1)
	}
	linked := map[string]bool{}
	for _, e := range entries {
		out := runGo(t, "", "tool", "nm", filepath.Join(bin, e.Name()))
		sc := bufio.NewScanner(bytes.NewReader(out))
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			for _, name := range linkedNames(sc.Text()) {
				linked[name] = true
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
	}

	var dead []string
	for name, pos := range declared {
		if !linked[name] {
			if _, ok := linkAllowlist[name]; !ok {
				dead = append(dead, pos+": "+name)
			}
		}
	}
	sort.Strings(dead)
	if len(dead) > 0 {
		t.Errorf("%d production functions are linked into no binary; delete them, move a same-package test hook into an _test.go file, or allowlist them with a category:\n\t%s",
			len(dead), strings.Join(dead, "\n\t"))
	}
	for name, a := range linkAllowlist {
		switch {
		case !linkCategories[a.category] || a.reason == "":
			t.Errorf("allowlist entry %s: category %q, reason %q; want a known category and a reason", name, a.category, a.reason)
		case declared[name] == "":
			t.Errorf("allowlist entry %s names no declared function; remove it", name)
		case linked[name]:
			t.Errorf("allowlist entry %s is linked into a binary; remove it", name)
		}
	}
}

// declaredFuncs parses every non-test Go file of the repository. It
// returns the functions declared under internal/, keyed as in
// linkAllowlist and valued by their position, and the import paths of
// the root module's main packages (cmd/vzbench, a module of its own,
// excluded).
func declaredFuncs(t *testing.T) (map[string]string, []string) {
	t.Helper()
	declared := map[string]string{}
	mainSet := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		if f.Name.Name == "main" && !strings.HasPrefix(dir, "cmd/vzbench") {
			mainSet["./"+dir] = true
		}
		pkg, ok := strings.CutPrefix(dir, "internal/")
		if !ok {
			return nil
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Name.Name == "init" || fn.Name.Name == "_" {
				continue
			}
			name := fn.Name.Name
			if fn.Recv != nil {
				name = recvTypeName(fn.Recv.List[0].Type) + "." + name
			}
			declared[pkg+"."+name] = fset.Position(fn.Pos()).String()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	mains := make([]string, 0, len(mainSet))
	for m := range mainSet {
		mains = append(mains, m)
	}
	sort.Strings(mains)
	return declared, mains
}

// recvTypeName is a receiver's base type name: T for T, *T, T[K] and
// *T[K, V].
func recvTypeName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// linkedNames maps one line of go tool nm output to the declared
// functions under internal/ its text symbol proves linked. The symbol
// is everything after the type column, because a generic
// instantiation's type arguments contain spaces. After stripping the
// bracketed type arguments and mapping (*T).M to T.M, the declared name
// is the symbol's first one or two dot-separated parts: the further
// parts are closures (.funcN), go and defer wrappers (.gowrapN,
// .deferwrapN) and their nesting, and a method value adds -fm.
func linkedNames(line string) []string {
	// "addr type name"; an undefined symbol has no address, and no Go
	// symbol of the module is undefined in a binary.
	fields := strings.Fields(line)
	if len(fields) < 3 || (fields[1] != "T" && fields[1] != "t") {
		return nil
	}
	_, sym, _ := strings.Cut(strings.TrimLeft(line, " "), " ")
	_, sym, _ = strings.Cut(strings.TrimLeft(sym, " "), " ")
	sym, ok := strings.CutPrefix(stripTypeArgs(sym), "vzlens/internal/")
	if !ok {
		return nil
	}
	slash := strings.LastIndex(sym, "/") + 1
	dot := strings.IndexByte(sym[slash:], '.')
	if dot < 0 {
		return nil
	}
	pkg, name := sym[:slash+dot], sym[slash+dot+1:]
	if rest, ok := strings.CutPrefix(name, "(*"); ok {
		name = strings.Replace(rest, ")", "", 1)
	}
	parts := strings.Split(name, ".")
	for i := range parts {
		parts[i] = strings.TrimSuffix(parts[i], "-fm")
	}
	names := []string{pkg + "." + parts[0]}
	if len(parts) > 1 {
		names = append(names, pkg+"."+parts[0]+"."+parts[1])
	}
	return names
}

// stripTypeArgs removes every bracketed span, nested ones included, by
// matching brackets: type arguments hold dots, slashes and brackets of
// their own, so no regular expression can find where they end.
func stripTypeArgs(s string) string {
	if !strings.Contains(s, "[") {
		return s
	}
	var b strings.Builder
	depth := 0
	for _, r := range s {
		switch {
		case r == '[':
			depth++
		case r == ']' && depth > 0:
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// runGo runs the go command in dir (relative to the repository root)
// and returns its standard output, failing the test with its standard
// error.
func runGo(t *testing.T, dir string, args ...string) []byte {
	t.Helper()
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return out
}
