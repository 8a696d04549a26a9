(** Run-time optimized proxy generation (Secs. 3.1, 5.2.3, 6.1.1):
    trusted call thunks generated from a parametrised master template,
    specialised by entry-point signature, effective isolation properties,
    process crossing and TLS mode, then memoised by that key. *)

type config = {
  sig_ : Types.signature;
  eff : Types.props;  (** effective (union) isolation properties *)
  cross_process : bool;
  tls_switch : bool;
}

(** Same-process minimal-policy proxies compile to the lean template (no
    KCS entry, no state switch). *)
val is_lean : config -> bool

type generated = {
  g_entry : int;  (** the 64-aligned entry the caller stub calls *)
  g_ret : int;  (** the proxy return path (recorded in the KCS) *)
  g_bytes : int;
  g_config : config;
}

type cache = Proxy_cache.t

val cache_create : unit -> cache

(** Distinct specialisation keys instantiated so far. *)
val template_count : cache -> int

(** (proxies generated, total bytes generated). *)
val stats : cache -> int * int

(** Generate and place a proxy at [base] (executable + privileged pages
    must already be mapped there, tagged with the proxy domain). *)
val generate :
  cache ->
  mem:Dipc_hw.Memory.t ->
  base:int ->
  target_addr:int ->
  target_tag:int ->
  config ->
  generated
