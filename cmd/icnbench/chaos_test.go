package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/serve"
)

// TestClassifyAuditorRejectsBadAnswers serves each malformed classify
// answer the soak must not accept and checks the auditor fails it with the
// matching reason. The request names antennas 0, 1, 2; revision 7's
// offline labels are [3 1 4].
func TestClassifyAuditorRejectsBadAnswers(t *testing.T) {
	const good = `{"model_revision":7,"results":[{"id":0,"cluster":3},{"id":1,"cluster":1},{"id":2,"cluster":4}]}`
	cases := []struct {
		name   string
		status int
		header string // X-Icn-Revision; "-" sends none
		body   string
		want   string // substring of the failure; "" accepts the answer
	}{
		{"parity", 200, "7", good, ""},
		{"shed", 503, "7", `{"error":"deadline exceeded"}`, ""},
		{"empty results", 200, "7", `{"model_revision":7,"results":[]}`, "0 results"},
		{"truncated results", 200, "7", `{"model_revision":7,"results":[{"id":0,"cluster":3},{"id":1,"cluster":1}]}`, "2 results"},
		{"extra result", 200, "7", `{"model_revision":7,"results":[{"id":0,"cluster":3},{"id":1,"cluster":1},{"id":2,"cluster":4},{"id":0,"cluster":3}]}`, "4 results"},
		{"reordered ids", 200, "7", `{"model_revision":7,"results":[{"id":1,"cluster":1},{"id":0,"cluster":3},{"id":2,"cluster":4}]}`, "request sent antenna 0"},
		{"id outside labels", 200, "7", `{"model_revision":7,"results":[{"id":0,"cluster":3},{"id":99,"cluster":1},{"id":2,"cluster":4}]}`, "outside revision"},
		{"flipped cluster", 200, "7", `{"model_revision":7,"results":[{"id":0,"cluster":3},{"id":1,"cluster":2},{"id":2,"cluster":4}]}`, "offline labels say 1"},
		{"header disagrees", 200, "8", good, "disagrees with model_revision 7"},
		{"header missing", 200, "-", good, "disagrees with model_revision 7"},
		{"unknown revision", 200, "9", `{"model_revision":9,"results":[]}`, "no registered offline result"},
		{"server error", 500, "7", `{"error":"boom"}`, "status 500"},
		{"not json", 200, "7", `{"model_revision":7,"results":[`, "unexpected end"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if tc.header != "-" {
					w.Header().Set(serve.RevisionHeader, tc.header)
				}
				w.WriteHeader(tc.status)
				_, _ = w.Write([]byte(tc.body))
			}))
			defer ts.Close()
			a := &classifyAuditor{
				url: ts.URL, body: []byte(`{}`), ids: []uint32{0, 1, 2},
				labels: func(rev uint64) ([]int, bool) {
					if rev == 7 {
						return []int{3, 1, 4}, true
					}
					return nil, false
				},
				errs: &errCollector{}, revs: map[uint64]bool{},
			}
			err := a.once()
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("auditor failed an acceptable answer: %v", err)
			case tc.want != "" && err == nil:
				t.Fatalf("auditor accepted a bad answer; want a failure naming %q", tc.want)
			case tc.want != "" && !strings.Contains(err.Error(), tc.want):
				t.Fatalf("auditor failure %q does not name %q", err, tc.want)
			}
			if tc.want == "" && a.ok+a.shed != 1 {
				t.Fatalf("accepted answer counted ok=%d shed=%d, want one of them", a.ok, a.shed)
			}
		})
	}
}
