package main

import (
	"strings"
	"testing"

	"repro/internal/core"
)

func TestParseSites(t *testing.T) {
	specs, err := parseSites("caltech:4:0.2:0.05, nust:2:0.0:0.01")
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 {
		t.Fatalf("parsed %d sites", len(specs))
	}
	if specs[0].Name != "caltech" || specs[0].Nodes != 4 || specs[0].CostPerCPUSecond != 0.05 {
		t.Fatalf("site[0] = %+v", specs[0])
	}
	if specs[0].Load == nil {
		t.Fatal("site load function not set")
	}
}

func TestParseSitesMalformed(t *testing.T) {
	for _, tc := range []struct{ in, wantErr string }{
		{"", "no sites"},
		{"caltech:4:0.2", "want name:nodes:load:cost"},
		{"caltech:4:0.2:0.05:9", "want name:nodes:load:cost"},
		{"caltech:four:0.2:0.05", "bad node count"},
		{"caltech:4:heavy:0.05", "bad load"},
		{"caltech:4:0.2:free", "bad cost"},
		{"caltech:4:0.2:-0.05", "bad cost"},
		{"caltech:4:0:NaN", "bad cost"},
		{"caltech:4:0:Inf", "bad cost"},
		{"caltech:4:0:-inf", "bad cost"},
		{"caltech:-1:0:0", "bad node count"},
		{"caltech:0:0:0", "bad node count"},
		{"caltech:2:NaN:0", "bad load"},
		{"caltech:2:1.5:0", "bad load"},
		{"caltech:2:-0.2:0", "bad load"},
		{":2:0:0", "empty name"},
		{"caltech:2:0:0,caltech:2:0:0", "duplicate name"},
	} {
		_, err := parseSites(tc.in)
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("parseSites(%q) error = %v, want %q", tc.in, err, tc.wantErr)
		}
	}
}

// sitesABC are the sites the link tests join.
var sitesABC = []core.SiteSpec{{Name: "a"}, {Name: "b"}, {Name: "c"}}

func TestParseLinks(t *testing.T) {
	links, err := parseLinks("a-b:10:50,b-c:2.5:0", sitesABC)
	if err != nil {
		t.Fatal(err)
	}
	if len(links) != 2 || links[0].A != "a" || links[0].B != "b" || links[0].MBps != 10 || links[0].LatencyMS != 50 {
		t.Fatalf("links = %+v", links)
	}
	// An empty link list is allowed (single-site deployments).
	if links, err := parseLinks("", sitesABC); err != nil || len(links) != 0 {
		t.Fatalf("empty links = %v, %v", links, err)
	}
}

func TestParseLinksMalformed(t *testing.T) {
	for _, tc := range []struct{ in, wantErr string }{
		{"a-b:10", "want a-b:MBps:latencyMS"},
		{"ab:10:50", "endpoints must be a-b"},
		{"a-b-c:10:50", "endpoints must be a-b"},
		{"a-b:fast:50", "bad bandwidth"},
		{"a-b:10:soon", "bad latency"},
		{"a-b:0:50", "bad bandwidth"},
		{"a-b:-10:50", "bad bandwidth"},
		{"a-b:NaN:50", "bad bandwidth"},
		{"a-b:Inf:50", "bad bandwidth"},
		{"a-b:10:-5", "bad latency"},
		{"a-a:10:5", "two different sites"},
	} {
		_, err := parseLinks(tc.in, sitesABC)
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("parseLinks(%q) error = %v, want %q", tc.in, err, tc.wantErr)
		}
	}
}

// A link's endpoints must be configured sites.
func TestParseLinksUnknownSite(t *testing.T) {
	_, err := parseLinks("a-b:10:50,a-d:10:50", sitesABC)
	if err == nil || !strings.Contains(err.Error(), `"d" is not a site`) {
		t.Fatalf("link to an unconfigured site: error = %v", err)
	}
}

func TestParseUsers(t *testing.T) {
	users, err := parseUsers("alice:secret:1000,bob:pw:0")
	if err != nil {
		t.Fatal(err)
	}
	if len(users) != 2 || users[0].Name != "alice" || users[0].Credits != 1000 {
		t.Fatalf("users = %+v", users)
	}
	if !users[0].Admin || users[1].Admin {
		t.Fatalf("only the first user should be admin: %+v", users)
	}
}

func TestParseUsersMalformed(t *testing.T) {
	for _, tc := range []struct{ in, wantErr string }{
		{"alice:secret", "want name:password:credits"},
		{"alice:secret:1000:extra", "want name:password:credits"},
		{"alice:secret:rich", "bad credits"},
		{":pw:1", "empty name"},
		{"alice:pw:NaN", "bad credits"},
		{"alice:pw:-5", "bad credits"},
		{"alice:pw:Inf", "bad credits"},
		{"alice:pw:1,alice:pw:2", "duplicate name"},
	} {
		_, err := parseUsers(tc.in)
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("parseUsers(%q) error = %v, want %q", tc.in, err, tc.wantErr)
		}
	}
}
