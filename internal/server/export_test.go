package server

// WriteBatchBytes exposes the writer's coalescing cap to the external
// tests.
const WriteBatchBytes = writeBatchBytes
