"""denshoe: Denjoy minimal sets, Sturmian coding, Aubry-Mather orbits and
numerically certified heteroclinic horseshoes for exact symplectic twist maps.

Records: each module logs to `denshoe.<module>`, at DEBUG only, and
builds a record only when DEBUG is enabled.  A record's format,
`record.msg`, starts with the step's name (`newton`, `factor_levels`,
...); its fields are the dict `record.args`, each under its name in the
text (`steps=%(steps)d` is `record.args["steps"]`), or one key per part
where the text joins several (`k=%(lo)d..%(hi)d`).  Read fields from
`record.args`, not from `record.getMessage()`."""

__version__ = "0.1.0"
