package main

import (
	"fmt"
	"time"

	"vnetp"
	"vnetp/internal/control"
	"vnetp/internal/ethernet"
)

// Tenants the workloads use. sealedTenant carries jumbo_sealed;
// aggressorTenant is noisy_neighbor's second tenant, whose endpoints
// reuse the victim's MACs so a tenancy leak would deliver to the victim.
const (
	sealedTenant    = 7
	aggressorTenant = 9
)

// env is one two-node overlay on loopback, configured the way an
// operator would: keys through Node.AddTenant, links and routes through
// the control language.
type env struct {
	a, b       *vnetp.Node
	epA, epB   *vnetp.Endpoint // the workload's endpoints
	aggA, aggB *vnetp.Endpoint // noisy_neighbor's aggressor pair, else nil
	applyNs    []float64       // per control-language line
}

func (e *env) close() {
	e.a.Close()
	e.b.Close()
}

// applyLine runs one control-language line against a node.
func applyLine(n *vnetp.Node, line string) error {
	cmd, err := control.Parse(line)
	if err == nil {
		_, err = control.Apply(n, cmd)
	}
	if err != nil {
		return fmt.Errorf("control %q: %w", line, err)
	}
	return nil
}

// apply runs control-language lines against a node, timing each.
func (e *env) apply(n *vnetp.Node, lines ...string) error {
	for _, l := range lines {
		t0 := time.Now()
		err := applyLine(n, l)
		e.applyNs = append(e.applyNs, float64(time.Since(t0)))
		if err != nil {
			return err
		}
	}
	return nil
}

// tenantClause scopes a control line to a tenant.
func tenantClause(t uint32) string {
	if t == 0 {
		return ""
	}
	return fmt.Sprintf(" TENANT %d", t)
}

// setup builds the overlay for a workload and delivers one probe frame
// from A to B; it returns once that frame has arrived.
func setup(w *workload, in *inputs) (*env, error) {
	a, err := vnetp.NewNode("bench-a", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	b, err := vnetp.NewNode("bench-b", "127.0.0.1:0")
	if err != nil {
		a.Close()
		return nil, err
	}
	e := &env{a: a, b: b}
	if err := e.configure(w, in); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

func (e *env) configure(w *workload, in *inputs) error {
	t := w.tenant
	for _, n := range []*vnetp.Node{e.a, e.b} {
		if t != 0 {
			if err := n.AddTenant(t, in.key); err != nil {
				return err
			}
		}
		if w.noisy {
			if err := n.AddTenant(aggressorTenant, in.key); err != nil {
				return err
			}
		}
	}
	var err error
	if e.epA, err = e.a.AttachEndpointTenant("nic0", in.macA, ethernet.JumboMTU, t); err != nil {
		return err
	}
	if e.epB, err = e.b.AttachEndpointTenant("nic0", in.macB, ethernet.JumboMTU, t); err != nil {
		return err
	}
	tc := tenantClause(t)
	if err := e.apply(e.a,
		"ADD LINK to-b REMOTE "+e.b.Addr()+tc,
		fmt.Sprintf("ADD ROUTE %s any link to-b%s", in.macB, tc)); err != nil {
		return err
	}
	if err := e.apply(e.b,
		"ADD LINK to-a REMOTE "+e.a.Addr()+tc,
		fmt.Sprintf("ADD ROUTE %s any link to-a%s", in.macA, tc)); err != nil {
		return err
	}
	if w.noisy {
		if e.aggA, err = e.a.AttachEndpointTenant("nic9", in.macA, ethernet.JumboMTU, aggressorTenant); err != nil {
			return err
		}
		if e.aggB, err = e.b.AttachEndpointTenant("nic9", in.macB, ethernet.JumboMTU, aggressorTenant); err != nil {
			return err
		}
		ac := tenantClause(aggressorTenant)
		if err := e.apply(e.a,
			"ADD LINK agg-to-b REMOTE "+e.b.Addr()+ac,
			fmt.Sprintf("ADD ROUTE %s any link agg-to-b%s", in.macB, ac)); err != nil {
			return err
		}
	}
	f := in.newFrame(in.macA, in.macB)
	in.stamp(f.Payload, 1, 0, tagProbe)
	if err := e.epA.Send(f); err != nil {
		return fmt.Errorf("probe send: %w", err)
	}
	g, ok := e.epB.Recv(5 * time.Second)
	if !ok {
		return fmt.Errorf("probe frame not delivered")
	}
	if _, _, tag, ok := in.check(g.Payload); !ok || tag != tagProbe {
		return fmt.Errorf("probe frame corrupted")
	}
	return nil
}

// churnLines are the control-language route write the churn (and the
// idle control-latency sample) performs: an unrelated route, added and
// removed.
func churnLines(w *workload, in *inputs) (add, del string) {
	r := fmt.Sprintf("ROUTE %s any link to-b%s", in.churn, tenantClause(w.tenant))
	return "ADD " + r, "DEL " + r
}

// routeWrite applies one ADD + DEL ROUTE pair, returning its latency.
func routeWrite(n *vnetp.Node, add, del string) (int64, error) {
	t0 := time.Now()
	if err := applyLine(n, add); err != nil {
		return 0, err
	}
	if err := applyLine(n, del); err != nil {
		return 0, err
	}
	return int64(time.Since(t0)), nil
}
