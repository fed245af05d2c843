/**
 * @file
 * Machine models for the analytical TM performance simulator.
 *
 * The bench host has 4 vCPUs; the paper's evaluation needs an
 * 8-hyperthread Haswell with TSX+RAPL (Machine A) and a 4-socket
 * 48-core Opteron (Machine B). MachineModel captures exactly the
 * architectural parameters the TM performance shapes depend on:
 * core/SMT/socket topology, HTM capacity, NUMA penalty and the power
 * envelope.
 */

#ifndef PROTEUS_SIMARCH_MACHINE_HPP
#define PROTEUS_SIMARCH_MACHINE_HPP

#include <algorithm>
#include <string>

#include "polytm/kpi.hpp"

namespace proteus::simarch {

struct MachineModel
{
    std::string name;

    int sockets = 1;
    int coresPerSocket = 4;
    int smtPerCore = 2;
    double clockGhz = 3.5;

    bool hasHtm = true;
    bool hasRapl = true;

    /** Emulated HTM capacity (cache lines). */
    double htmReadCapacityLines = 4096;
    double htmWriteCapacityLines = 448;

    /**
     * Multiplier applied to coherence-bound costs (conflict handling,
     * shared-clock ticks, commit serialization) once threads span more
     * than one socket.
     */
    double numaFactor = 1.0;

    /** Relative throughput of the second SMT context on a core. */
    double smtYield = 0.35;

    polytm::PowerModel power{};

    int physicalCores() const { return sockets * coresPerSocket; }
    int maxThreads() const { return physicalCores() * smtPerCore; }

    /**
     * Effective parallel capacity of n threads: physical cores count
     * fully, SMT contexts contribute smtYield.
     */
    double
    effectiveCores(int n) const
    {
        const int phys = std::min(n, physicalCores());
        const int smt = std::max(0, n - physicalCores());
        return phys + smtYield * smt;
    }

    /** Number of sockets n threads spread across (dense placement). */
    int
    socketsSpanned(int n) const
    {
        const int per_socket = coresPerSocket * smtPerCore;
        return std::min(sockets, (n + per_socket - 1) / per_socket);
    }

    /**
     * Coherence cost multiplier at thread count n: 1 on one socket,
     * rising toward numaFactor as the placement spans all sockets.
     */
    double
    coherencePenalty(int n) const
    {
        const int span = socketsSpanned(n);
        if (span <= 1 || sockets <= 1)
            return 1.0;
        const double frac =
            static_cast<double>(span - 1) / static_cast<double>(sockets - 1);
        return 1.0 + (numaFactor - 1.0) * frac;
    }

    /** The paper's Machine A: 1x Haswell Xeon E3-1275, 4c/8t, TSX. */
    static MachineModel machineA();

    /** The paper's Machine B: 4x AMD Opteron 6172, 48 cores, no HTM. */
    static MachineModel machineB();
};

} // namespace proteus::simarch

#endif // PROTEUS_SIMARCH_MACHINE_HPP
