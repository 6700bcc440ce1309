package chow88

import (
	"context"
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"chow88/internal/daemon"
	"chow88/internal/loadgen"
)

// BenchmarkDaemonSaturation measures chowd under saturation: 8 concurrent
// healthy clients against worker pools of increasing size, reporting
// throughput and tail latency as custom metrics (req/s, p50-ms, p99-ms).
// Comparing the workers=1/2/4 rows shows how far the daemon's admission
// and worker-pool design scales before queueing dominates. `make
// benchsmoke` runs each row once; perfbench's serve workload is the
// daemon's measurement of record.
func BenchmarkDaemonSaturation(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			s, err := daemon.NewServer(daemon.Config{Workers: workers, QueueDepth: 64})
			if err != nil {
				b.Fatal(err)
			}
			ts := httptest.NewServer(s.Handler())
			defer func() {
				ts.Close()
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				s.Shutdown(ctx)
			}()

			b.ResetTimer()
			sum, err := loadgen.Run(loadgen.Options{
				BaseURL: ts.URL,
				Clients: 8,
				// b.N scales the per-client request count, so -benchtime
				// stretches the measurement window, not the fleet size.
				Requests: 4 * b.N,
			})
			b.StopTimer()
			if err != nil {
				b.Fatal(err)
			}
			if sum.Healthy5xx > 0 || sum.OracleMismatches > 0 {
				b.Fatalf("saturation run went unhealthy: %s", sum)
			}
			b.ReportMetric(sum.ReqPerSec, "req/s")
			b.ReportMetric(float64(sum.P50)/1e6, "p50-ms")
			b.ReportMetric(float64(sum.P99)/1e6, "p99-ms")
		})
	}
}
