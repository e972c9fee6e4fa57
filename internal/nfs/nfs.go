// Package nfs models the NFS filer that stores every virtual machine image
// in the vHadoop testbed ("All the virtual machine images are stored on a
// separate NFS server"). Because VM virtual disks are files on this server,
// every block of VM disk I/O becomes network traffic to the filer plus a
// fair share of the filer's disk — which is why the paper's conclusion names
// "network I/O and NFS disk I/O" as the platform's two main bottlenecks.
//
// Read, Write and Relay share one streaming path: the filer's disk job and
// the network flow run at once, as one vnet.Stream that each returns. A
// process waits it out with Stream.Wait; the VM I/O stages, which own no
// process, wait on its latches. Relay is the O_DIRECT read (Xen's blktap),
// carried on through the host's dom0 to another guest.
package nfs

import (
	"vhadoop/internal/phys"
	"vhadoop/internal/sim"
	"vhadoop/internal/vnet"
)

// writePenalty scales disk time per written byte relative to reads (RAID
// parity updates make array writes slower than reads).
const writePenalty = 1.5

// Server is the NFS filer: a dedicated machine whose disk backs all VM
// images.
type Server struct {
	topo    *phys.Topology
	machine *phys.Machine

	readBytes  float64
	writeBytes float64
}

// NewServer attaches an NFS filer to the topology using the given machine,
// with a RAID write penalty of 1.5x.
func NewServer(topo *phys.Topology, machine *phys.Machine) *Server {
	return &Server{topo: topo, machine: machine}
}

// Machine returns the filer's physical machine.
func (s *Server) Machine() *phys.Machine { return s.machine }

// Disk returns the filer's disk resource.
func (s *Server) Disk() *sim.FairShare { return s.machine.Disk }

// ReadBytes returns cumulative bytes read from the filer.
func (s *Server) ReadBytes() float64 { return s.readBytes }

// WriteBytes returns cumulative bytes written to the filer.
func (s *Server) WriteBytes() float64 { return s.writeBytes }

// Read starts a VM disk read issued from a VM on client: the filer's disk
// and the network transfer to the client's dom0 proceed in parallel
// (streaming), so the reader pays the slower of the two. A VM image
// fetched at boot is read the same way.
func (s *Server) Read(client *phys.Machine, bytes float64) vnet.Stream {
	return s.stream(s.topo.HostPath(s.machine, client), bytes, bytes, &s.readBytes)
}

// Relay starts an O_DIRECT read of the disk of a VM on host, on behalf of
// a guest on dst: one coupled flow from the filer through host's dom0 to
// dst (phys.Topology.RelayPath), streaming in parallel with the filer's
// disk.
func (s *Server) Relay(host, dst *phys.Machine, bytes float64) vnet.Stream {
	return s.stream(s.topo.RelayPath(s.machine, host, dst), bytes, bytes, &s.readBytes)
}

// Write starts a VM disk write from a VM on client: network transfer to
// the filer and the filer's disk write stream in parallel.
func (s *Server) Write(client *phys.Machine, bytes float64) vnet.Stream {
	return s.stream(s.topo.HostPath(client, s.machine), bytes, bytes*writePenalty, &s.writeBytes)
}

// stream is the one path of Read, Relay and Write: add bytes to *count and
// start a disk job of work units with bytes moving along route (nil for
// none). Zero bytes start nothing.
func (s *Server) stream(route *vnet.Route, bytes, work float64, count *float64) vnet.Stream {
	if bytes <= 0 {
		return vnet.Stream{}
	}
	*count += bytes
	return s.topo.Fabric().Stream(s.machine.Disk, work, route, bytes)
}
