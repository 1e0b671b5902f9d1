package tcptransport

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hypercube/internal/core"
	"hypercube/internal/id"
)

func getJSON(t *testing.T, srv *httptest.Server, path string, out any) {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d", path, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

func TestAdminStatusAndTable(t *testing.T) {
	seed, err := StartSeed(p163, core.Options{}, id.MustParse(p163, "a1b"), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer seed.Close()
	srv := httptest.NewServer(seed.AdminHandler())
	defer srv.Close()

	var st Stats
	getJSON(t, srv, "/status", &st)
	if st.ID != "a1b" || st.Status != "in_system" || st.B != 16 || st.D != 3 {
		t.Fatalf("status = %+v", st)
	}
	if st.FilledEntries != p163.D {
		t.Fatalf("seed should have %d diagonal entries, reports %d", p163.D, st.FilledEntries)
	}

	var tbl struct {
		Owner   string       `json:"owner"`
		Entries []tableEntry `json:"entries"`
	}
	getJSON(t, srv, "/table", &tbl)
	if tbl.Owner != "a1b" || len(tbl.Entries) != p163.D {
		t.Fatalf("table = %+v", tbl)
	}
	for _, e := range tbl.Entries {
		if e.ID != "a1b" || e.State != "S" {
			t.Fatalf("diagonal entry = %+v", e)
		}
	}
}

func TestAdminJoinAndLeave(t *testing.T) {
	seed, err := StartSeed(p163, core.Options{}, id.MustParse(p163, "fff"), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer seed.Close()
	joiner, err := StartJoiner(p163, core.Options{}, id.MustParse(p163, "123"), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer joiner.Close()
	srv := httptest.NewServer(joiner.AdminHandler())
	defer srv.Close()

	// Joining via the admin API.
	body := fmt.Sprintf(`{"id":"fff","addr":%q}`, seed.Ref().Addr)
	resp, err := http.Post(srv.URL+"/join", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /join: %d", resp.StatusCode)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := joiner.AwaitStatus(ctx, core.StatusInSystem); err != nil {
		t.Fatal(err)
	}

	// Joining twice conflicts.
	resp, err = http.Post(srv.URL+"/join", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("second POST /join: %d, want conflict", resp.StatusCode)
	}

	// Leaving via the admin API.
	resp, err = http.Post(srv.URL+"/leave", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /leave: %d", resp.StatusCode)
	}
	if err := joiner.AwaitStatus(ctx, core.StatusLeft); err != nil {
		t.Fatal(err)
	}
	// Leaving twice conflicts.
	resp, err = http.Post(srv.URL+"/leave", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("second POST /leave: %d, want conflict", resp.StatusCode)
	}
}

func TestAdminJoinValidation(t *testing.T) {
	joiner, err := StartJoiner(p163, core.Options{}, id.MustParse(p163, "456"), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer joiner.Close()
	srv := httptest.NewServer(joiner.AdminHandler())
	defer srv.Close()

	for name, body := range map[string]string{
		"garbage": "{",
		"badID":   `{"id":"zz!","addr":"127.0.0.1:1"}`,
	} {
		t.Run(name, func(t *testing.T) {
			resp, err := http.Post(srv.URL+"/join", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400", resp.StatusCode)
			}
		})
	}
}
