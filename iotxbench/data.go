package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"odh"
	"odh/internal/iotx"
	"odh/internal/model"
	"odh/internal/server"
)

// scale fixes the benchmark's configuration. Every value here is part of
// the benchmark's definition and is recorded in metrics.json.
type scale struct {
	batchSize int   // points per ValueBlob
	poolPages int   // buffer pool of the history/rollup store and cluster nodes, 4 KiB pages
	blobCache int64 // decoded-blob cache budget of the history/rollup store, bytes
	// The ingest store's pool and cache hold the dashboard's newest
	// window, unlike the read store's, which the store outgrows.
	ingestPoolPages int
	ingestBlobCache int64
	queryWorkers    int // parallel scan degree cap
	framePts        int // points per BATCH frame
	flushEvery      int // points between FLUSH commands on the ingest connection
	setupReps       int // store builds per run; setup_s is their median

	tdAccounts   int     // TD sources
	tdHz         float64 // trades per second per account
	ldSensors    int     // LD sources
	ldIntervalMs int64   // mean LD sampling interval

	readTDPoints    int // history/rollup store contents
	readLDPoints    int
	scatterTDPoints int // scatter cluster contents
	clusterNodes    int
	clusterReplicas int

	ingestPreload int           // points loaded before the ingest clock starts
	maintEvery    int           // acked points between maintenance cycles
	maintCycles   int           // maintenance cycles per ingest run
	dashThink     time.Duration // dashboard pause between queries
	dashWindowMs  [2]int64      // dashboard roll-up window per schema (TD, LD)
	tdPolicy      lifecycle
	ldPolicy      lifecycle
}

// lifecycle is one schema's maintenance policy, in its own data clock.
type lifecycle struct {
	coldAfterMs, stubAfterMs, retainMs int64
}

func defaultScale() scale {
	return scale{
		batchSize:       128,
		poolPages:       512,
		blobCache:       2 << 20,
		ingestPoolPages: 4096,
		ingestBlobCache: 16 << 20,
		queryWorkers:    2,
		framePts:        1000,
		flushEvery:      50_000,
		setupReps:       9,

		tdAccounts:   200,
		tdHz:         2,
		ldSensors:    2000,
		ldIntervalMs: 23_000,

		readTDPoints:    100_000,
		readLDPoints:    100_000,
		scatterTDPoints: 60_000,
		clusterNodes:    3,
		clusterReplicas: 2,

		ingestPreload: 100_000,
		maintEvery:    150_000,
		maintCycles:   4,
		dashThink:     50 * time.Millisecond,
		dashWindowMs:  [2]int64{120_000, 900_000},
		tdPolicy:      lifecycle{coldAfterMs: 180_000, stubAfterMs: 300_000, retainMs: 600_000},
		ldPolicy:      lifecycle{coldAfterMs: 1_800_000, stubAfterMs: 3_600_000, retainMs: 5_400_000},
	}
}

// nodeOptions are the single-node historian options every workload uses.
// The recovery log keeps its default policy: sync at flush or rotation.
func (sc scale) nodeOptions() odh.Options {
	return odh.Options{
		BatchSize:         sc.batchSize,
		PoolPages:         sc.poolPages,
		BlobCacheBytes:    sc.blobCache,
		QueryWorkers:      sc.queryWorkers,
		EnableRecoveryLog: true,
	}
}

// generators builds the seeded TD and LD streams. Their durations are
// long enough that no run exhausts them.
func (sc scale) generators(seed int64) (*iotx.TDGen, *iotx.LDGen) {
	td := iotx.NewTDGen(iotx.TDConfig{
		I: 1, J: 1, AccountUnit: sc.tdAccounts, FreqUnitHz: sc.tdHz,
		Duration: 48 * time.Hour, Seed: seed,
	})
	ld := iotx.NewLDGen(iotx.LDConfig{
		I: 1, SensorUnit: sc.ldSensors, MeanIntervalMs: sc.ldIntervalMs,
		Duration: 30 * 24 * time.Hour, Seed: seed,
	})
	return td, ld
}

const (
	schemaTD = 0
	schemaLD = 1
)

var (
	schemaNames = [2]string{"trade", "observation"}
	tableNames  = [2]string{"TRADE", "Observation"}
)

// frame is one encoded BATCH payload.
type frame struct {
	schema  int
	payload []byte
	n       int           // points in the frame
	points  []model.Point // nil once only the payload is needed
}

// nextFrame draws up to n points from one generator and encodes them.
func nextFrame(schema int, next func() (model.Point, bool), n int) (frame, error) {
	f := frame{schema: schema, points: make([]model.Point, 0, n)}
	for len(f.points) < n {
		p, ok := next()
		if !ok {
			break
		}
		f.points = append(f.points, p)
	}
	if len(f.points) == 0 {
		return f, fmt.Errorf("%s generator exhausted", schemaNames[schema])
	}
	var err error
	f.n = len(f.points)
	f.payload, err = server.EncodeBatchFrame(f.points)
	return f, err
}

// registerSchemas creates the TD and LD schema types, their virtual
// tables and their sources through the Go API (operational sources have
// no SQL form).
func registerSchemas(h *odh.Historian, sc scale, ldIDs []int64) error {
	td, err := h.CreateSchema(iotx.TDSchema())
	if err != nil {
		return err
	}
	if err := h.CreateVirtualTable(tableNames[schemaTD], schemaNames[schemaTD]); err != nil {
		return err
	}
	interval := int64(math.Max(1, 1000/sc.tdHz))
	srcs := make([]odh.DataSource, sc.tdAccounts)
	for i := range srcs {
		srcs[i] = odh.DataSource{ID: int64(i + 1), SchemaID: td.ID, IntervalMs: interval}
	}
	if _, err := h.RegisterSources(srcs); err != nil {
		return err
	}
	if ldIDs == nil {
		return nil
	}
	ld, err := h.CreateSchema(iotx.LDSchema(0, 0))
	if err != nil {
		return err
	}
	if err := h.CreateVirtualTable(tableNames[schemaLD], schemaNames[schemaLD]); err != nil {
		return err
	}
	srcs = srcs[:0]
	for _, id := range ldIDs {
		srcs = append(srcs, odh.DataSource{ID: id, SchemaID: ld.ID, IntervalMs: sc.ldIntervalMs})
	}
	_, err = h.RegisterSources(srcs)
	return err
}

// relationalDDL creates the dimension tables the WS2 join templates read.
var relationalDDL = []string{
	`CREATE TABLE ACCOUNT (CA_ID BIGINT, CA_C_ID BIGINT, CA_NAME VARCHAR(32), CA_BAL DOUBLE)`,
	`CREATE INDEX acct_by_id ON ACCOUNT (CA_ID)`,
	`CREATE INDEX acct_by_name ON ACCOUNT (CA_NAME)`,
	`CREATE TABLE CUSTOMER (C_ID BIGINT, C_L_NAME VARCHAR(32), C_F_NAME VARCHAR(32), C_TIER INT, C_DOB TIMESTAMP)`,
	`CREATE INDEX cust_by_id ON CUSTOMER (C_ID)`,
	`CREATE INDEX cust_by_dob ON CUSTOMER (C_DOB)`,
	`CREATE TABLE LinkedSensor (SensorId BIGINT, SensorName VARCHAR(16), Latitude DOUBLE, Longitude DOUBLE)`,
	`CREATE INDEX sensor_by_id ON LinkedSensor (SensorId)`,
	`CREATE INDEX sensor_by_name ON LinkedSensor (SensorName)`,
	`CREATE INDEX sensor_by_lat ON LinkedSensor (Latitude)`,
	`CREATE INDEX sensor_by_lon ON LinkedSensor (Longitude)`,
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// relationalInserts renders the dimension rows as multi-row INSERTs.
func relationalInserts(accts []iotx.AccountRow, custs []iotx.CustomerRow, sensors []iotx.SensorRow) []string {
	var out []string
	emit := func(table string, rows []string) {
		for len(rows) > 0 {
			n := min(len(rows), 200)
			out = append(out, "INSERT INTO "+table+" VALUES "+strings.Join(rows[:n], ", "))
			rows = rows[n:]
		}
	}
	var rows []string
	for _, a := range accts {
		rows = append(rows, fmt.Sprintf("(%d, %d, '%s', %s)", a.CAID, a.CCID, a.Name, fmtFloat(a.Bal)))
	}
	emit("ACCOUNT", rows)
	rows = nil
	for _, c := range custs {
		rows = append(rows, fmt.Sprintf("(%d, '%s', '%s', %d, %d)", c.CID, c.LName, c.FName, c.Tier, c.DOB))
	}
	emit("CUSTOMER", rows)
	rows = nil
	for _, s := range sensors {
		rows = append(rows, fmt.Sprintf("(%d, '%s', %s, %s)", s.SensorID, s.Name, fmtFloat(s.Lat), fmtFloat(s.Lon)))
	}
	emit("LinkedSensor", rows)
	return out
}

// lowerBound returns the first index i with xs[i] >= v in sorted xs.
func lowerBound(xs []int64, v int64) int {
	return sort.Search(len(xs), func(i int) bool { return xs[i] >= v })
}

// countRange counts sorted xs within [lo, hi].
func countRange(xs []int64, lo, hi int64) int {
	return lowerBound(xs, hi+1) - lowerBound(xs, lo)
}

// bucketFloor is TIME_BUCKET's grid: floor(ts / width) * width.
func bucketFloor(ts, width int64) int64 {
	r := ts % width
	if r < 0 {
		r += width
	}
	return ts - r
}

// near compares two floats the way re-ordered float sums can differ.
func near(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}
