(** The live dashboard: a dependency-free, self-contained HTML page
    over the flight recorder.

    Inline CSS/JS/SVG only — it renders from [curl]'d output as well
    as live.  The page polls the serving port's own JSON routes
    ([/range] per sparkline panel, [/alerts], [/tail]), so it shows the
    server's {!Obs} context, and draws inline SVG polylines
    client-side; the served string is constant. *)

val page : unit -> string
(** The full HTML document. *)
