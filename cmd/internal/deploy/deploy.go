// Package deploy is the preamble resdb-node, resdb-client and
// resdb-gateway share: the flags that describe a TCP deployment (who the
// replicas are and the seed their keys derive from) registered once, and
// the pieces every binary builds from them — the address map, the key
// directory, and a TCP endpoint for a replica or for a client identity —
// plus the renderer that turns each binary's flags into its knob table.
package deploy

import (
	"flag"
	"fmt"
	"strings"

	"resilientdb/internal/crypto"
	"resilientdb/internal/transport"
	"resilientdb/internal/types"
)

// Flags holds the shared deployment flags after flag parsing.
type Flags struct {
	// Seed is -seed; resdb-client's session mode seeds its workload with
	// it without resolving the rest.
	Seed int64

	n           int
	members     string // comma-separated replica addresses, index = id
	membersFlag string
}

// Register adds the shared deployment flags to fs. A replica names the
// member list -peers (it is one of them); a client or gateway names the
// same list -replicas.
func Register(fs *flag.FlagSet, isReplica bool) *Flags {
	f := &Flags{}
	fs.IntVar(&f.n, "n", 4, "number of replicas, n ≥ 3f+1")
	if isReplica {
		f.membersFlag = "peers"
		fs.StringVar(&f.members, "peers", "", "comma-separated replica addresses, index = id")
	} else {
		f.membersFlag = "replicas"
		fs.StringVar(&f.members, "replicas", "", "comma-separated replica addresses, index = id")
	}
	fs.Int64Var(&f.Seed, "seed", 1, "shared key-derivation seed (the same on every node, client and gateway)")
	return f
}

// Deployment is what the flags resolve to.
type Deployment struct {
	N int
	// Addrs maps every replica to its dialable address.
	Addrs map[types.NodeID]string
	// Directory is the key material derived from -seed.
	Directory *crypto.Directory
}

// Resolve validates the parsed flags; every error it returns is a usage
// error.
func (f *Flags) Resolve() (*Deployment, error) {
	d := &Deployment{N: f.n}
	list := strings.Split(f.members, ",")
	if len(list) != f.n {
		return nil, fmt.Errorf("-%s must list exactly %d addresses", f.membersFlag, f.n)
	}
	d.Addrs = make(map[types.NodeID]string, f.n)
	for i, a := range list {
		d.Addrs[types.ReplicaNode(types.ReplicaID(i))] = strings.TrimSpace(a)
	}
	dir, err := crypto.NewDirectoryFromSeed(crypto.Recommended(), f.Seed)
	if err != nil {
		return nil, err
	}
	d.Directory = dir
	return d, nil
}

// ReplicaEndpoint listens for replica id: one inbox for client traffic and
// two shared by replica traffic.
func (d *Deployment) ReplicaEndpoint(id types.ReplicaID, listen string) (*transport.TCPEndpoint, error) {
	return d.endpoint(types.ReplicaNode(id), listen, 3, 1<<13)
}

// ClientEndpoint opens an endpoint for client identity id and greets every
// replica, which teaches each the return path over the client-dialed
// connection (a client has no listener the replicas know).
func (d *Deployment) ClientEndpoint(id types.ClientID) (*transport.TCPEndpoint, error) {
	ep, err := d.endpoint(types.ClientNode(id), "127.0.0.1:0", 1, 1<<10)
	if err != nil {
		return nil, err
	}
	for node := range d.Addrs {
		if err := ep.Hello(node); err != nil {
			ep.Close()
			return nil, fmt.Errorf("cannot reach %v: %w", node, err)
		}
	}
	return ep, nil
}

func (d *Deployment) endpoint(self types.NodeID, listen string, inboxes, capacity int) (*transport.TCPEndpoint, error) {
	return transport.NewTCPWithConfig(transport.TCPConfig{
		Self:       self,
		ListenAddr: listen,
		Addrs:      d.Addrs,
		Inboxes:    inboxes,
		Capacity:   capacity,
	})
}
