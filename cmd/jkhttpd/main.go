// Command jkhttpd runs the extensible web server of the paper's §4: a
// native front server hosting the J-Kernel bridge, with the CS314
// toolchain servlets premounted and the admin upload surface open.
//
//	jkhttpd -addr :8080
//
// With -workers N the server becomes a cluster: a control plane spawns N
// worker kernel processes (autoscaling up to -max-workers), uploaded
// servlets are placed across them by -strategy, crashed workers restart
// and their servlets fail over to survivors.
//
// Endpoints:
//
//	GET    /status                      liveness (native servlet)
//	POST   /cs314/compile               MiniC -> C3 assembly
//	POST   /cs314/assemble?unit=N       C3 assembly -> object file
//	POST   /cs314/link                  object bundle -> executable
//	POST   /cs314/run                   executable -> program output
//	POST   /admin/upload?name=&prefix=&main=   upload a VM servlet bundle
//	DELETE /admin/servlet?name=         terminate a servlet domain
//	GET    /admin/servlets              list mounted servlets
//	GET    /admin/cluster               control-plane snapshot (cluster mode)
//	GET    /debug/jk                    telemetry snapshot (+ ?trace=<id>)
//	GET    /debug/pprof/                Go profiler
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"

	"jkernel"
	"jkernel/servlet"
	"jkernel/toolchain"
)

type statusServlet struct{}

func (statusServlet) Service(req *servlet.Request) (*servlet.Response, error) {
	return &servlet.Response{Status: 200, Body: []byte("jkhttpd: serving\n")}, nil
}

// clusterWorkerSetup is the worker half of cluster mode: each spawned
// process installs a deployer the control plane drives. "status" is the
// only native factory; everything else arrives as uploaded VM bundles.
func clusterWorkerSetup(k *jkernel.Kernel) error {
	_, err := jkernel.ServeClusterWorker(k, map[string]func() servlet.Servlet{
		"status": func() servlet.Servlet { return statusServlet{} },
	})
	return err
}

func main() {
	jkernel.MaybeRunWorker(clusterWorkerSetup)

	addr := flag.String("addr", "127.0.0.1:8080", "listen address")
	workers := flag.Int("workers", 0, "cluster mode: minimum worker kernel processes (0 = in-process servlets only)")
	maxWorkers := flag.Int("max-workers", 0, "cluster mode: autoscale ceiling (default: -workers)")
	strategy := flag.String("strategy", "least-loaded", "placement strategy: least-loaded, consistent-hash")
	flag.Parse()

	k := jkernel.New(jkernel.Options{Stdout: os.Stdout})
	bridge, err := servlet.NewBridge(k)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := bridge.MountNative("status", "/status", statusServlet{}); err != nil {
		log.Fatal(err)
	}
	if err := toolchain.MountServlets(bridge); err != nil {
		log.Fatal(err)
	}

	var cluster *jkernel.Cluster
	if *workers > 0 {
		strat, err := jkernel.StrategyByName(*strategy)
		if err != nil {
			log.Fatal(err)
		}
		cluster, err = jkernel.StartCluster(jkernel.ClusterOptions{
			Kernel:     k,
			Bridge:     bridge,
			MinWorkers: *workers,
			MaxWorkers: *maxWorkers,
			Strategy:   strat,
			Log:        func(f string, a ...any) { log.Printf("sched: "+f, a...) },
		})
		if err != nil {
			log.Fatal(err)
		}
		defer cluster.Close()
	}

	// Observability: live metrics/traces at /debug/jk, profiler under
	// /debug/pprof/; everything else routes through the bridge.
	mux := http.NewServeMux()
	mux.Handle("/debug/jk", jkernel.DebugHandler(k))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	if cluster != nil {
		mux.HandleFunc("/admin/cluster", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(jkernel.ClusterStats(cluster))
		})
	}
	mux.Handle("/", bridge)

	if cluster != nil {
		fmt.Printf("jkhttpd cluster on http://%s (%d workers, %s placement, servlets: %v)\n",
			*addr, *workers, *strategy, bridge.Router.Names())
	} else {
		fmt.Printf("jkhttpd listening on http://%s (servlets: %v)\n", *addr, bridge.Router.Names())
	}
	log.Fatal(http.ListenAndServe(*addr, mux))
}
