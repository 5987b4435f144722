package xqgo_test

// End-to-end tests of the command-line tools, exercised through `go run`
// (self-contained: the module has no external dependencies).

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func runTool(t *testing.T, args ...string) (string, string, error) {
	t.Helper()
	cmd := exec.Command("go", args...)
	cmd.Dir = repoRoot(t)
	var out, errb strings.Builder
	cmd.Stdout = &out
	cmd.Stderr = &errb
	err := cmd.Run()
	return out.String(), errb.String(), err
}

func repoRoot(t *testing.T) string {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	return wd
}

func TestCLIXmlgenAndXq(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping CLI tests in -short mode")
	}
	dir := t.TempDir()
	docPath := filepath.Join(dir, "orders.xml")

	// Generate a dataset.
	out, errOut, err := runTool(t, "run", "./cmd/xmlgen", "-kind", "orders", "-n", "50", "-sellers", "5")
	if err != nil {
		t.Fatalf("xmlgen: %v\n%s", err, errOut)
	}
	if !strings.Contains(out, "<Order") || !strings.Contains(out, "OrderLine") {
		t.Fatalf("xmlgen output malformed: %.200s", out)
	}
	if err := os.WriteFile(docPath, []byte(out), 0o644); err != nil {
		t.Fatal(err)
	}

	// Query it.
	out, errOut, err = runTool(t, "run", "./cmd/xq", "-doc", docPath, `count(/Order/OrderLine)`)
	if err != nil {
		t.Fatalf("xq: %v\n%s", err, errOut)
	}
	if strings.TrimSpace(out) != "50" {
		t.Errorf("xq count = %q, want 50", strings.TrimSpace(out))
	}

	// The unoptimized plan agrees.
	out2, errOut, err := runTool(t, "run", "./cmd/xq",
		"-doc", docPath, "-no-opt", `count(/Order/OrderLine)`)
	if err != nil {
		t.Fatalf("xq -no-opt: %v\n%s", err, errOut)
	}
	if out2 != out {
		t.Errorf("optimized and unoptimized disagree: %q vs %q", out2, out)
	}

	// xq -stream=false prints through EvalString and xq -stream (the
	// default) through Execute: one writer, so a namespaced document comes
	// out as the same bytes, with the prefixes its declarations carry.
	nsDoc := filepath.Join("testdata", "seed_ns.xml")
	nsQuery := `<w xmlns:z="urn:z">{/*/*[1], /*}</w>`
	out, errOut, err = runTool(t, "run", "./cmd/xq", "-stream=false", "-doc", nsDoc, nsQuery)
	if err != nil {
		t.Fatalf("xq -stream=false over %s: %v\n%s", nsDoc, err, errOut)
	}
	out2, errOut, err = runTool(t, "run", "./cmd/xq", "-stream", "-doc", nsDoc, nsQuery)
	if err != nil {
		t.Fatalf("xq -stream over %s: %v\n%s", nsDoc, err, errOut)
	}
	if out2 != out {
		t.Errorf("xq -stream=false and xq -stream disagree:\n  false: %q\n  true:  %q", out, out2)
	}
	for _, want := range []string{
		`<w xmlns:z="urn:z"><a xmlns="urn:p" xmlns:ns1="urn:p" ns1:k="v" plain="w">`,
		`<r xmlns="urn:default" xmlns:p="urn:p">`, `<p:a p:k="v" plain="w">`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("xq output lacks %s:\n%s", want, out)
		}
	}

	// The removed mode flags are gone, not ignored.
	for _, args := range [][]string{
		{"run", "./cmd/xq", "-engine", "eager", `1`},
		{"run", "./cmd/xqd", "-joins"},
		{"run", "./cmd/xqbench", "-json", "x"},
	} {
		_, errOut, err := runTool(t, args...)
		if err == nil || !strings.Contains(errOut, "flag provided but not defined") {
			t.Errorf("%v: err %v, stderr %q; want an unknown-flag failure", args[1:], err, errOut)
		}
	}

	// -plan prints the expression tree.
	out, _, err = runTool(t, "run", "./cmd/xq", "-plan", `/a/b[1]`)
	if err != nil {
		t.Fatalf("xq -plan: %v", err)
	}
	if !strings.Contains(out, "child::b[1]") {
		t.Errorf("plan output = %q", out)
	}

	// External variable binding from a file.
	out, errOut, err = runTool(t, "run", "./cmd/xq",
		"-var", "d="+docPath,
		`declare variable $d external; string($d/Order/@id)`)
	if err != nil {
		t.Fatalf("xq -var: %v\n%s", err, errOut)
	}
	if !strings.HasPrefix(strings.TrimSpace(out), "47") {
		t.Errorf("var-bound query output = %q", out)
	}

	// String variable binding.
	out, _, err = runTool(t, "run", "./cmd/xq",
		"-var", "s:=world",
		`declare variable $s external; concat("hello ", $s)`)
	if err != nil {
		t.Fatalf("xq -var string: %v", err)
	}
	if strings.TrimSpace(out) != "hello world" {
		t.Errorf("string var output = %q", out)
	}

	// Errors exit non-zero with a diagnostic.
	_, errOut, err = runTool(t, "run", "./cmd/xq", `1 +`)
	if err == nil {
		t.Error("bad query should exit non-zero")
	}
	if !strings.Contains(errOut, "expected an expression") {
		t.Errorf("error output = %q", errOut)
	}
}

func TestCLIXqbenchSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping CLI tests in -short mode")
	}
	out, errOut, err := runTool(t, "run", "./cmd/xqbench", "-only", "e9", "-reps", "1")
	if err != nil {
		t.Fatalf("xqbench: %v\n%s", err, errOut)
	}
	if !strings.Contains(out, "dictionary pooling") || !strings.Contains(out, "pooled names+values") {
		t.Errorf("xqbench output = %.300s", out)
	}
	_, errOut, err = runTool(t, "run", "./cmd/xqbench", "-only", "nosuch")
	if err == nil {
		t.Error("unknown experiment should exit non-zero")
	}
	if !strings.Contains(errOut, "unknown experiment") {
		t.Errorf("stderr = %q", errOut)
	}
}
