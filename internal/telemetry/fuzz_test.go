package telemetry

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"
)

// FuzzDecodeTelemetryJSONL hardens the telemetry read-back: arbitrary
// bytes must decode or fail with an error, never panic, and every stream
// the decoder accepts must re-encode and decode to the same metrics.
func FuzzDecodeTelemetryJSONL(f *testing.F) {
	r := New()
	r.Counter("kernel.sim.delivered").Add(120)
	r.Counter("solver.nodes").Add(7)
	r.Gauge("runner.worker_occupancy").Observe(8)
	r.Histogram("runner.cell_seconds").Observe(3 * time.Millisecond)
	var real bytes.Buffer
	if err := r.WriteJSONL(&real); err != nil {
		f.Fatal(err)
	}
	const header = `{"telemetry":"ocd-telemetry/v1"}` + "\n"
	f.Add(real.String())
	f.Add(real.String()[:real.Len()/2]) // torn mid-record
	f.Add(header + `{"metric":"x","type":"histogram","class":"wallclock","count":-1}` + "\n")
	f.Add(header + `{"metric":"x","type":"timer","class":"wallclock"}` + "\n")
	f.Add(header + `{"metric":"x","type":"counter","class":"fuzzy"}` + "\n")
	f.Add(header + "\n" + `{"metric":"x","type":"counter","class":"deterministic","value":-3}` + "\n")
	f.Add("")
	f.Fuzz(func(t *testing.T, body string) {
		ms, err := DecodeJSONL(strings.NewReader(body))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := encodeJSONL(&buf, ms); err != nil {
			t.Fatalf("re-encoding accepted metrics: %v", err)
		}
		again, err := DecodeJSONL(&buf)
		if err != nil {
			t.Fatalf("re-encoded stream does not decode: %v", err)
		}
		if !reflect.DeepEqual(again, ms) {
			t.Fatalf("round trip changed the metrics:\n got %+v\nwant %+v", again, ms)
		}
	})
}
