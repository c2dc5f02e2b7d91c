package bench

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

// TestRunUpdateAblation smoke-runs the update ablation at tiny scale and
// pins its structure: every method appears under both maintenance
// strategies, nothing DNFs, mutation and query counts match across
// strategies (the streams are identical), and every method's online
// maintenance beats the full-rebuild baseline.
func TestRunUpdateAblation(t *testing.T) {
	s := tinyScale()
	var log bytes.Buffer
	results, err := RunUpdateAblation(context.Background(), s, &log)
	if err != nil {
		t.Fatalf("RunUpdateAblation: %v\n%s", err, log.String())
	}
	byVariant := map[string]UpdateResult{}
	for _, r := range results {
		if r.DNF {
			t.Fatalf("%s DNF: %s", r.Variant, r.Reason)
		}
		byVariant[r.Variant] = r
	}
	var names []string
	for _, spec := range updateAblationSpecs {
		name, _, _ := strings.Cut(spec, ":")
		names = append(names, name)
		online, ok := byVariant["online:"+name]
		if !ok {
			t.Fatalf("no online:%s row", name)
		}
		rebuild, ok := byVariant["rebuild:"+name]
		if !ok {
			t.Fatalf("no rebuild:%s row", name)
		}
		if online.Mutations != rebuild.Mutations || online.Queries != rebuild.Queries {
			t.Errorf("%s: strategies ran different streams: %+v vs %+v", spec, online, rebuild)
		}
		if online.Mutations == 0 || online.Queries == 0 {
			t.Errorf("online:%s ran no traffic", spec)
		}
		if online.MaintainSeconds <= 0 || rebuild.MaintainSeconds <= 0 {
			t.Errorf("%s: zero maintenance time", spec)
		}
	}
	// The tentpole claim: online maintenance beats full rebuild.
	for _, spec := range names {
		online, rebuild := byVariant["online:"+spec], byVariant["rebuild:"+spec]
		if online.MaintainSeconds >= rebuild.MaintainSeconds {
			t.Errorf("%s: online %.4fs not faster than rebuild %.4fs",
				spec, online.MaintainSeconds, rebuild.MaintainSeconds)
		}
		if online.SpeedupVsRebuild <= 1 {
			t.Errorf("%s: speedup %.2f <= 1", spec, online.SpeedupVsRebuild)
		}
	}

	var report bytes.Buffer
	WriteUpdateReport(&report, results)
	for _, want := range []string{"online:grapes", "rebuild:ctindex", "speedup"} {
		if !strings.Contains(report.String(), want) {
			t.Errorf("report missing %q:\n%s", want, report.String())
		}
	}
}
