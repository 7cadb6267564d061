(** HyperFile — distributed processing of filtering queries.

    Umbrella module: every library of the system under one name, so an
    application can [open Hyperfile] (or depend on the [hyperfile]
    library alone) and reach the whole API.

    Start with {!Embedded} for a ready-to-use multi-site server, or see
    [examples/quickstart.ml]. *)

(** {1 Data model (paper §2)} *)

module Oid = Hf_data.Oid
module Value = Hf_data.Value
module Tuple = Hf_data.Tuple
module Hobject = Hf_data.Hobject
module Store = Hf_data.Store

(** {1 Query language (paper §2)} *)

module Pattern = Hf_query.Pattern
module Filter = Hf_query.Filter
module Ast = Hf_query.Ast
module Program = Hf_query.Program
module Compile = Hf_query.Compile
module Parser = Hf_query.Parser
module Printer = Hf_query.Printer
module Validate = Hf_query.Validate
module Builder = Hf_query.Builder
module Matcher = Hf_query.Matcher

(** {1 Query engine (paper §3.1)} *)

module Plan = Hf_engine.Plan
module Work_item = Hf_engine.Work_item
module Mark_table = Hf_engine.Mark_table
module Eval = Hf_engine.Eval
module Local = Hf_engine.Local
module Engine_stats = Hf_engine.Stats

(** {1 Distributed server (paper §3.2) and its substrates} *)

module Cluster = Hf_server.Cluster
module Clusters = Hf_server.Instances
module Server_metrics = Hf_server.Metrics
module Sim = Hf_sim.Sim
module Costs = Hf_sim.Costs
module Message = Hf_proto.Message
module Codec = Hf_proto.Codec
module Frame = Hf_proto.Frame
module Tcp_site = Hf_net.Tcp_site

(** {1 Termination detection (paper §4)} *)

module Credit = Hf_termination.Credit
module Weighted = Hf_termination.Weighted
module Dijkstra_scholten = Hf_termination.Dijkstra_scholten
module Four_counter = Hf_termination.Four_counter

(** {1 Indexing, persistence} *)

module Keyword_index = Hf_index.Keyword_index
module Reachability = Hf_index.Reachability
module Indexed_eval = Hf_index.Indexed_eval
module Snapshot = Hf_persist.Snapshot

(** {1 Clients, workload, baseline} *)

module Embedded = Hf_client.Embedded
module Script = Hf_client.Script
module Synthetic = Hf_workload.Synthetic
module Workload_queries = Hf_workload.Queries
module File_server = Hf_baseline.File_server

(** {1 Observability} *)

module Span = Hf_obs.Span
module Tracer = Hf_obs.Tracer
module Histogram = Hf_obs.Histogram
module Registry = Hf_obs.Registry
module Json = Hf_obs.Json

(** {1 Utilities} *)

module Prng = Hf_util.Prng
module Stats = Hf_util.Stats
