// Package nfs models the NFS filer that stores every virtual machine image
// in the vHadoop testbed ("All the virtual machine images are stored on a
// separate NFS server"). Because VM virtual disks are files on this server,
// every block of VM disk I/O becomes network traffic to the filer plus a
// fair share of the filer's disk — which is why the paper's conclusion names
// "network I/O and NFS disk I/O" as the platform's two main bottlenecks.
package nfs

import (
	"vhadoop/internal/phys"
	"vhadoop/internal/sim"
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

// SubmitRead charges the filer's disk for a read asynchronously, returning
// its completion latch (used by relay flows that pair the disk stream with
// a multi-hop network flow).
func (s *Server) SubmitRead(bytes float64) *sim.Done {
	s.readBytes += bytes
	return s.machine.Disk.Submit(bytes)
}

// Read services a VM disk read issued from a VM on client: the filer's disk
// and the network transfer to the client proceed in parallel (streaming),
// so the caller pays the slower of the two. Read, Write and FetchImage
// recycle their disk job and flow, so they allocate nothing in steady
// state.
func (s *Server) Read(p *sim.Proc, client *phys.Machine, bytes float64) {
	if bytes <= 0 {
		return
	}
	s.readBytes += bytes
	disk := s.machine.Disk.Begin(bytes)
	if route := s.topo.HostPath(s.machine, client); route != nil {
		s.topo.Fabric().Transfer(p, "nfs-read", route, bytes)
	}
	s.machine.Disk.End(p, disk)
}

// Write services a VM disk write from a VM on client: network transfer to
// the filer and the filer's disk write stream in parallel.
func (s *Server) Write(p *sim.Proc, client *phys.Machine, bytes float64) {
	if bytes <= 0 {
		return
	}
	s.writeBytes += bytes
	disk := s.machine.Disk.Begin(bytes * writePenalty)
	if route := s.topo.HostPath(client, s.machine); route != nil {
		s.topo.Fabric().Transfer(p, "nfs-write", route, bytes)
	}
	s.machine.Disk.End(p, disk)
}

// FetchImage streams a VM image of the given size from the filer to dst's
// dom0 (used when booting a VM on a machine for the first time).
func (s *Server) FetchImage(p *sim.Proc, dst *phys.Machine, bytes float64) {
	if bytes <= 0 {
		return
	}
	s.readBytes += bytes
	disk := s.machine.Disk.Begin(bytes)
	if route := s.topo.HostPath(s.machine, dst); route != nil {
		s.topo.Fabric().Transfer(p, "nfs-image", route, bytes)
	}
	s.machine.Disk.End(p, disk)
}
