// Command spotctl is the CLI client for spotcheckd's HTTP API: the
// day-to-day operator tool of the derivative cloud.
//
// Usage:
//
//	spotctl [-server http://localhost:8080] <command> [args]
//
// Commands:
//
//	create [-customer name] [-type m3.medium] [-stateless]
//	servers                     list nested VMs
//	describe <id>               one VM's details
//	events <id>                 one VM's audit timeline
//	estimate <id>               predicted revocation downtime right now
//	release <id>                relinquish a VM
//	pools | prices | report | customers | status | clock
//	trace | metrics             the controller's event ring, Prometheus metrics
//	advance <duration>          advance virtual time (e.g. 1h30m)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strings"
)

func main() {
	server := flag.String("server", "http://localhost:8080", "spotcheckd address")
	flag.Parse()
	if err := run(os.Stdout, http.DefaultClient, *server, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "spotctl:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, client *http.Client, base string, args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("need a command (create, servers, describe, events, estimate, release, pools, prices, report, customers, status, clock, trace, metrics, advance)")
	}
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "create":
		fs := flag.NewFlagSet("create", flag.ContinueOnError)
		customer := fs.String("customer", "default", "tenant name")
		typ := fs.String("type", "m3.medium", "server type")
		stateless := fs.Bool("stateless", false, "run without a backup server (§4.2)")
		if err := fs.Parse(rest); err != nil {
			return err
		}
		q := url.Values{
			"customer":  {*customer},
			"type":      {*typ},
			"stateless": {fmt.Sprint(*stateless)},
		}
		return do(w, client, http.MethodPost, base+"/servers?"+q.Encode())
	case "servers":
		return do(w, client, http.MethodGet, base+"/servers")
	case "describe", "events", "estimate", "release":
		if len(rest) != 1 {
			return fmt.Errorf("%s needs exactly one VM id", cmd)
		}
		id := url.PathEscape(rest[0])
		switch cmd {
		case "describe":
			return do(w, client, http.MethodGet, base+"/servers/"+id)
		case "events":
			return do(w, client, http.MethodGet, base+"/servers/"+id+"/events")
		case "estimate":
			return do(w, client, http.MethodGet, base+"/servers/"+id+"/estimate")
		default:
			return do(w, client, http.MethodDelete, base+"/servers/"+id)
		}
	case "pools", "prices", "report", "customers", "status", "clock", "trace", "metrics":
		return do(w, client, http.MethodGet, base+"/"+cmd)
	case "advance":
		if len(rest) != 1 {
			return fmt.Errorf("advance needs a duration, e.g. 1h30m")
		}
		return do(w, client, http.MethodPost, base+"/advance?d="+url.QueryEscape(rest[0]))
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
}

// do issues the request and pretty-prints the JSON response; non-2xx
// responses become errors carrying the server's message.
func do(w io.Writer, client *http.Client, method, u string) error {
	req, err := http.NewRequest(method, u, nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		var apiErr struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(body, &apiErr) == nil && apiErr.Error != "" {
			return fmt.Errorf("%s: %s", resp.Status, apiErr.Error)
		}
		return fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	var pretty any
	if err := json.Unmarshal(body, &pretty); err != nil {
		// Not JSON: pass through.
		_, err = w.Write(body)
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(pretty)
}
