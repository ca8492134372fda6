package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceRecordAndTotal(t *testing.T) {
	tr := NewTrace()
	tr.Record(StageTrace{Name: "first", Wall: 10 * time.Millisecond, Waited: 0})
	tr.Record(StageTrace{Name: "second", Wall: 5 * time.Millisecond, Waited: 12 * time.Millisecond})
	if got := len(tr.Stages()); got != 2 {
		t.Fatalf("%d stages", got)
	}
	if total := tr.Total(); total != 17*time.Millisecond {
		t.Fatalf("total %v, want 17ms", total)
	}
	s := tr.String()
	for _, want := range []string{"first", "second", "TOTAL"} {
		if !strings.Contains(s, want) {
			t.Fatalf("rendered trace missing %q:\n%s", want, s)
		}
	}
}

func TestTraceErrorRendered(t *testing.T) {
	tr := NewTrace()
	tr.Record(StageTrace{Name: "bad", Err: "validation failed"})
	if !strings.Contains(tr.String(), "ERROR: validation failed") {
		t.Fatalf("error not rendered:\n%s", tr.String())
	}
}

func TestCountersConcurrent(t *testing.T) {
	const name = "obs.test.counter"
	base := Counters()[name]
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				Add(name, 1)
			}
		}()
	}
	wg.Wait()
	if got := Counters()[name] - base; got != 800 {
		t.Fatalf("counter delta %d, want 800", got)
	}
}

func TestFormatBytes(t *testing.T) {
	cases := map[uint64]string{
		512:       "512B",
		2 << 10:   "2.0KiB",
		3 << 20:   "3.0MiB",
		1<<30 + 1: "1.0GiB",
	}
	for in, want := range cases {
		if got := formatBytes(in); got != want {
			t.Fatalf("formatBytes(%d) = %q, want %q", in, got, want)
		}
	}
}

// TestRegistriesAreIndependent: instance registries share nothing with
// each other or with Default, and the catalog's Instance column decides
// which of them seeds each name.
func TestRegistriesAreIndependent(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Add("serve.classify.requests", 3)
	if got := a.Counter("serve.classify.requests"); got != 3 {
		t.Fatalf("a reads %d, want 3", got)
	}
	if got := b.Counter("serve.classify.requests"); got != 0 {
		t.Fatalf("b reads %d of a's requests", got)
	}
	instance, process := a.Counters(), Counters()
	for _, d := range Catalog {
		if d.Kind != KindCounter {
			continue
		}
		_, inInstance := instance[d.Name]
		_, inDefault := process[d.Name]
		if inInstance != d.Instance || inDefault == d.Instance {
			t.Errorf("%s (Instance %v): seeded in instance registry %v, in Default %v",
				d.Name, d.Instance, inInstance, inDefault)
		}
	}
}
