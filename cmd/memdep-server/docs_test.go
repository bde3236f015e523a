package main

// Docs-freshness tests: the documented surface is generated from the same
// tables the server actually serves (fleet.Routes, newFlagSet), so a route
// or flag added without documentation fails CI.

import (
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"memdep/internal/fleet"
	"memdep/sim"
)

// repoFile reads a file relative to the repository root.
func repoFile(t *testing.T, rel string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", rel))
	if err != nil {
		t.Fatalf("reading %s: %v", rel, err)
	}
	return string(data)
}

// TestAPIDocCoversServerRoutes asserts every route any role serves appears
// in docs/API.md as a literal `METHOD /path` string.
func TestAPIDocCoversServerRoutes(t *testing.T) {
	doc := repoFile(t, filepath.Join("docs", "API.md"))
	for _, r := range fleet.Routes() {
		key := fmt.Sprintf("`%s %s`", r.Method, r.Pattern)
		if !strings.Contains(doc, key) {
			t.Errorf("docs/API.md does not document %s", key)
		}
	}
}

// TestAPIDocNamesAliasTargets asserts docs/API.md names the go doc target
// of every counter group of sim.Result and of the synthetic spec.  The sim
// types are aliases of the core types, so `go doc memdep/sim` shows only
// the alias; the fields and their JSON names are documented where the
// aliased type is defined.
func TestAPIDocNamesAliasTargets(t *testing.T) {
	doc := repoFile(t, filepath.Join("docs", "API.md"))
	result := reflect.TypeFor[sim.Result]()
	var types []reflect.Type
	for _, field := range []string{"Breakdown", "MemDep", "ARB", "Cache", "Sequencer"} {
		f, ok := result.FieldByName(field)
		if !ok {
			t.Fatalf("sim.Result has no field %s", field)
		}
		types = append(types, f.Type)
	}
	types = append(types, reflect.TypeFor[sim.SynthSpec]())
	for _, typ := range types {
		target := typ.PkgPath() + "." + typ.Name()
		if !strings.Contains(doc, target) {
			t.Errorf("docs/API.md does not name the go doc target %s", target)
		}
	}
}

// TestAPIDocRequestEnumsParse asserts the value lists the /v1/simulate
// request example gives in its policy and predictor comments are what the
// server accepts: every listed name parses, and every policy and table
// organization is listed.
func TestAPIDocRequestEnumsParse(t *testing.T) {
	doc := repoFile(t, filepath.Join("docs", "API.md"))
	start := strings.Index(doc, "## `POST /v1/simulate`")
	if start < 0 {
		t.Fatal("docs/API.md has no POST /v1/simulate section")
	}
	example, _, _ := strings.Cut(doc[start:], "\n```\n")
	// listed returns the names after the last colon of the field's comment.
	listed := func(field string) []string {
		for _, line := range strings.Split(example, "\n") {
			if !strings.HasPrefix(strings.TrimSpace(line), `"`+field+`":`) {
				continue
			}
			_, comment, _ := strings.Cut(line, "//")
			if i := strings.LastIndex(comment, ":"); i >= 0 {
				comment = comment[i+1:]
			}
			var names []string
			for _, name := range strings.Split(comment, "|") {
				names = append(names, strings.TrimSpace(name))
			}
			return names
		}
		t.Fatalf("the /v1/simulate request example has no %q line", field)
		return nil
	}
	covered := map[string]bool{}
	for _, name := range listed("policy") {
		p, err := sim.ParsePolicy(name)
		if err != nil {
			t.Errorf("docs/API.md lists policy %q: %v", name, err)
		}
		covered[string(p)] = true
	}
	for _, p := range sim.Policies() {
		if !covered[string(p)] {
			t.Errorf("docs/API.md does not list policy %s", p)
		}
	}
	for _, name := range listed("predictor") {
		k, err := sim.ParseTableKind(name)
		if err != nil {
			t.Errorf("docs/API.md lists predictor %q: %v", name, err)
		}
		covered[string(k)] = true
	}
	for _, k := range sim.TableKinds() {
		if !covered[string(k)] {
			t.Errorf("docs/API.md does not list predictor %s", k)
		}
	}
}

// TestServerServesDeclaredRoutes asserts the standalone handler actually
// serves every route fleet.Routes declares for it: no dead documentation.
func TestServerServesDeclaredRoutes(t *testing.T) {
	ts := httptest.NewServer(fleet.NewLocal(sim.NewSession(), nil).Handler())
	defer ts.Close()
	for _, r := range fleet.Routes() {
		if r.CoordinatorOnly {
			continue
		}
		req, err := http.NewRequest(r.Method, ts.URL+r.Pattern, strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", r.Method, r.Pattern, err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusNotFound || resp.StatusCode == http.StatusMethodNotAllowed {
			t.Errorf("%s %s = %d, the declared route is not served", r.Method, r.Pattern, resp.StatusCode)
		}
	}
}

// TestREADMECoversCommands asserts every cmd/ binary is mentioned in the
// README's command overview.
func TestREADMECoversCommands(t *testing.T) {
	readme := repoFile(t, "README.md")
	entries, err := os.ReadDir(filepath.Join("..", "..", "cmd"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		if !strings.Contains(readme, e.Name()) {
			t.Errorf("README.md does not mention cmd/%s", e.Name())
		}
	}
}

// TestOperationsDocCoversServerFlags asserts every memdep-server flag is
// documented in docs/OPERATIONS.md.
func TestOperationsDocCoversServerFlags(t *testing.T) {
	doc := repoFile(t, filepath.Join("docs", "OPERATIONS.md"))
	fs, _ := newFlagSet()
	fs.VisitAll(func(f *flag.Flag) {
		if !strings.Contains(doc, "`-"+f.Name+"`") {
			t.Errorf("docs/OPERATIONS.md does not document memdep-server -%s", f.Name)
		}
	})
}
