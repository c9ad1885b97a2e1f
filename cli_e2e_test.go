// End-to-end test of the actual CLI binaries: build them, run the P4→rP4→
// templates flow, boot the switch daemon, and drive it with the controller
// over the real control channel — the paper's deployment, as processes.
package ipsa

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

func buildTool(t *testing.T, dir, name string) string {
	t.Helper()
	bin := filepath.Join(dir, name)
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("building %s: %v\n%s", name, err, out)
	}
	return bin
}

func run(t *testing.T, bin string, args ...string) string {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, out)
	}
	return string(out)
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

func freePort(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

func TestCLIEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short")
	}
	dir := t.TempDir()
	rp4c := buildTool(t, dir, "rp4c")
	rp4bc := buildTool(t, dir, "rp4bc")
	ipbmBin := buildTool(t, dir, "ipbm")
	rp4ctl := buildTool(t, dir, "rp4ctl")

	// 1. P4 -> rP4 (+ API spec).
	genRP4 := filepath.Join(dir, "base.rp4")
	apiJSON := filepath.Join(dir, "api.json")
	run(t, rp4c, "-o", genRP4, "-api", apiJSON, "testdata/base_l2l3.p4")
	if b, err := os.ReadFile(apiJSON); err != nil || !strings.Contains(string(b), "ipv4_lpm") {
		t.Fatalf("api spec: %v", err)
	}

	// 2. rP4 -> device configuration.
	baseCfg := filepath.Join(dir, "base.json")
	run(t, rp4bc, "-o", baseCfg, "testdata/base_l2l3.rp4")

	// 3. Boot the switch daemon.
	addr, web := freePort(t), freePort(t)
	daemon := exec.Command(ipbmBin, "-listen", addr, "-config", baseCfg, "-metrics-addr", web)
	daemon.Stdout = os.Stderr
	daemon.Stderr = os.Stderr
	if err := daemon.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = daemon.Process.Kill()
		_, _ = daemon.Process.Wait()
	}()
	// Wait for the CCM to come up.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if out, err := exec.Command(rp4ctl, "-addr", addr, "ping").CombinedOutput(); err == nil && strings.Contains(string(out), "ok") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("daemon never answered ping")
		}
		time.Sleep(50 * time.Millisecond)
	}

	// 4. Populate a route and inspect state over the wire.
	run(t, rp4ctl, "-addr", addr, "insert", "ipv4_lpm", "1", "key=0x0a000000", "prefix=8", "params=7")
	tables := run(t, rp4ctl, "-addr", addr, "tables")
	if !strings.Contains(tables, "ipv4_lpm") || !strings.Contains(tables, "entries=1") {
		t.Fatalf("tables:\n%s", tables)
	}

	// 5. In-situ update: compile the ECMP increment and apply it live.
	ecmpCfg := filepath.Join(dir, "ecmp.json")
	out := run(t, rp4bc, "-script", "testdata/ecmp.script", "-o", ecmpCfg, "testdata/base_l2l3.rp4")
	_ = out
	applied := run(t, rp4ctl, "-addr", addr, "apply", ecmpCfg)
	if !strings.Contains(applied, "full=false") {
		t.Fatalf("apply was not incremental:\n%s", applied)
	}
	// A selector's entries are its members: two for next-hop group 7, then
	// the first deleted by the handle its insert printed.
	first := run(t, rp4ctl, "-addr", addr, "insert", "ecmp_ipv4", "1", "key=7", "params=200,2199023255555")
	run(t, rp4ctl, "-addr", addr, "insert", "ecmp_ipv4", "1", "key=7", "params=200,2199023255556")
	run(t, rp4ctl, "-addr", addr, "delete", "ecmp_ipv4", strings.TrimPrefix(strings.TrimSpace(first), "handle="))
	tables = run(t, rp4ctl, "-addr", addr, "tables")
	if !regexp.MustCompile(`ecmp_ipv4 +hash/selector .* entries=1\n`).MatchString(tables) || strings.Contains(tables, "nexthop_tbl") {
		t.Fatalf("post-update tables:\n%s", tables)
	}
	// An edit script is one request: a new table commits, and a script
	// that would strand a stage's table is refused with nothing changed.
	addTable := filepath.Join(dir, "add_table.json")
	writeFile(t, addTable, `[{"kind":"set_table","table":"cli_scratch","table_spec":{"name":"cli_scratch","kind":"exact","keys":[{"name":"k"}],"key_width":4,"size":8}}]`)
	if out := run(t, rp4ctl, "-addr", addr, "edit", addTable); !strings.Contains(out, "committed 1 ops") {
		t.Fatalf("edit:\n%s", out)
	}
	tables = run(t, rp4ctl, "-addr", addr, "tables")
	if !strings.Contains(tables, "cli_scratch") {
		t.Fatalf("tables after edit:\n%s", tables)
	}
	dropUsed := filepath.Join(dir, "drop_used.json")
	writeFile(t, dropUsed, `[{"kind":"delete_table","table":"dmac_tbl"}]`)
	if out, err := exec.Command(rp4ctl, "-addr", addr, "edit", dropUsed).CombinedOutput(); err == nil {
		t.Fatalf("edit stranding a stage's table succeeded:\n%s", out)
	}
	if after := run(t, rp4ctl, "-addr", addr, "tables"); after != tables {
		t.Fatalf("refused edit changed tables:\n%s\nwant:\n%s", after, tables)
	}
	stats := run(t, rp4ctl, "-addr", addr, "stats")
	if !strings.Contains(stats, "active_tsps") {
		t.Fatalf("stats:\n%s", stats)
	}

	// 6. Every read subcommand answers from the live device's views.
	run(t, rp4ctl, "-addr", addr, "int", "enable")
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"metrics"}, `ipsa_config_applies_total{mode="full"} 1`},
		{[]string{"metrics", "-grep", "^ipsa_epoch"}, "ipsa_epoch "},
		{[]string{"trace", "5"}, ""},
		{[]string{"flows"}, "LANE FLOW"},
		{[]string{"flows", "records", "5"}, "LANE FLOW"},
		{[]string{"hh", "5"}, "EST_PKTS"},
		{[]string{"drops", "3"}, "SEQ    AGE"},
		{[]string{"int", "report", "1"}, ""},
		{[]string{"events"}, "int_enable"},
		{[]string{"health", "5s"}, "state: "},
		{[]string{"show", "rates", "5s"}, "["},
	} {
		out := run(t, rp4ctl, append([]string{"-addr", addr}, c.args...)...)
		if !strings.Contains(out, c.want) {
			t.Errorf("rp4ctl %v:\n%s", c.args, out)
		}
		if c.args[0] == "metrics" && len(c.args) > 1 && strings.Contains(out, "ipsa_packets_total") {
			t.Errorf("metrics -grep let other series through:\n%s", out)
		}
	}
	// The metrics endpoint serves the same views over HTTP.
	resp, err := http.Get("http://" + web + "/v/events?max=1")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"kind":"int_enable"`) {
		t.Errorf("GET /v/events: %d %s", resp.StatusCode, body)
	}
	fmt.Println("CLI end-to-end:", strings.TrimSpace(applied))
}
